/// \file escape_testing.hpp
/// \brief Shared pieces of the escape-analysis suites: field-for-field
///        equality of two analyses, and a deliberately broken lane.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "deadlock/escape.hpp"
#include "routing/xy.hpp"

namespace genoc {

/// Every field of \p actual equals \p expected: the verdicts, the state
/// counts, the first witness, the escape graph's edges and the summary.
inline void expect_identical(const EscapeAnalysis& actual,
                             const EscapeAnalysis& expected) {
  EXPECT_EQ(actual.escape_always_available, expected.escape_always_available);
  EXPECT_EQ(actual.states_checked, expected.states_checked);
  EXPECT_EQ(actual.missing_states, expected.missing_states);
  EXPECT_EQ(actual.missing_escape, expected.missing_escape);
  EXPECT_EQ(actual.escape_graph.graph.vertex_count(),
            expected.escape_graph.graph.vertex_count());
  EXPECT_EQ(actual.escape_graph.graph.edges(),
            expected.escape_graph.graph.edges());
  EXPECT_EQ(actual.escape_graph_acyclic, expected.escape_graph_acyclic);
  EXPECT_EQ(actual.deadlock_free, expected.deadlock_free);
  EXPECT_EQ(actual.summary(), expected.summary());
}

/// A deliberately broken escape lane: XY everywhere except that every
/// in-port state at nodes with x == 1 gets no hop at all. Deterministic
/// (at most one hop) but unavailable on many states spread across
/// destinations — exactly the shape that would expose witness
/// nondeterminism in a sharded sweep. Node-uniform: the published mask of
/// column 1 is empty too.
class HolePuncturedXY final : public RoutingFunction {
 public:
  explicit HolePuncturedXY(const Mesh2D& mesh)
      : RoutingFunction(mesh), xy_(mesh) {}

  std::string name() const override { return "XY (punctured)"; }
  bool is_deterministic() const override { return true; }
  bool node_uniform() const override { return true; }

  void append_next_hops(const Port& current, const Port& dest,
                        std::vector<Port>& out) const override {
    if (current.x == 1 && current.dir == Direction::kIn) {
      return;  // no escape hop from any in-port of column 1
    }
    xy_.append_next_hops(current, dest, out);
  }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override {
    return x == 1 ? 0 : xy_.node_out_mask(x, y, dest);
  }

 private:
  XYRouting xy_;
};

}  // namespace genoc
