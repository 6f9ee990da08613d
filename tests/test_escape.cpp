// Tests for the Duato-style escape-channel analysis (Sec. IX extension).
#include <gtest/gtest.h>

#include "deadlock/escape.hpp"
#include "graph/cycle.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/west_first.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "util/require.hpp"

namespace genoc {
namespace {

TEST(Escape, FullyAdaptiveWithXyEscapeIsDeadlockFree) {
  // The headline result of the extension: the unrestricted adaptive
  // function — cyclic on its own — becomes provably deadlock-free with one
  // XY-routed escape lane per port.
  for (const auto& [w, h] : {std::pair{2, 2}, std::pair{3, 3}, std::pair{4, 4},
                            std::pair{5, 3}}) {
    const Mesh2D mesh(w, h);
    const FullyAdaptiveRouting adaptive(mesh);
    const XYRouting xy(mesh);
    // Sanity: the adaptive lanes alone are cyclic.
    ASSERT_FALSE(is_acyclic(build_dep_graph(adaptive).graph));
    const EscapeAnalysis analysis = analyze_escape(adaptive, xy);
    EXPECT_TRUE(analysis.escape_always_available)
        << w << "x" << h << ": " << analysis.summary();
    EXPECT_TRUE(analysis.escape_graph_acyclic) << analysis.summary();
    EXPECT_TRUE(analysis.deadlock_free);
    EXPECT_GT(analysis.states_checked, 0u);
  }
}

TEST(Escape, EscapeGraphIsSubgraphOfExyDep) {
  // Escape states are XY-consistent after the first hop, so the escape
  // closure must live inside the paper's Exy_dep.
  const Mesh2D mesh(3, 3);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting xy(mesh);
  const EscapeAnalysis analysis = analyze_escape(adaptive, xy);
  const PortDepGraph exy = build_exy_dep(mesh);
  for (const auto& [from, to] : analysis.escape_graph.graph.edges()) {
    EXPECT_TRUE(exy.graph.has_edge(from, to))
        << analysis.escape_graph.label(from) << " -> "
        << analysis.escape_graph.label(to);
  }
}

TEST(Escape, WestFirstWithYxEscapeAlsoWorks) {
  // A second combination: turn-model adaptive lanes with a YX escape.
  const Mesh2D mesh(4, 4);
  const WestFirstRouting adaptive(mesh);
  const YXRouting yx(mesh);
  const EscapeAnalysis analysis = analyze_escape(adaptive, yx);
  EXPECT_TRUE(analysis.deadlock_free) << analysis.summary();
}

TEST(Escape, CyclicEscapeFunctionIsRejected) {
  // Using the fully-adaptive function as its own "escape" must fail the
  // determinism precondition.
  const Mesh2D mesh(3, 3);
  const FullyAdaptiveRouting adaptive(mesh);
  EXPECT_THROW(analyze_escape(adaptive, adaptive), ContractViolation);
}

/// XY hops without the node-uniformity claim: deterministic, but the
/// node-granular analysis has no mask it may trust.
class PortModeXY final : public RoutingFunction {
 public:
  explicit PortModeXY(const Mesh2D& mesh) : RoutingFunction(mesh), xy_(mesh) {}
  std::string name() const override { return "XY (port mode)"; }
  bool is_deterministic() const override { return true; }
  void append_next_hops(const Port& current, const Port& dest,
                        std::vector<Port>& out) const override {
    xy_.append_next_hops(current, dest, out);
  }

 private:
  XYRouting xy_;
};

TEST(Escape, NonNodeUniformEscapeIsRejected) {
  const Mesh2D mesh(3, 3);
  const FullyAdaptiveRouting adaptive(mesh);
  const PortModeXY escape(mesh);
  EXPECT_THROW(analyze_escape(adaptive, escape), ContractViolation);
}

TEST(Escape, MeshMismatchIsRejected) {
  const Mesh2D a(2, 2);
  const Mesh2D b(3, 3);
  const FullyAdaptiveRouting adaptive(a);
  const XYRouting xy(b);
  EXPECT_THROW(analyze_escape(adaptive, xy), ContractViolation);
}

TEST(Escape, SummaryIsInformative) {
  const Mesh2D mesh(2, 2);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting xy(mesh);
  const EscapeAnalysis analysis = analyze_escape(adaptive, xy);
  EXPECT_NE(analysis.summary().find("deadlock-free"), std::string::npos);
  EXPECT_NE(analysis.summary().find("acyclic"), std::string::npos);
}

}  // namespace
}  // namespace genoc
