// Tests for the analytic path of analyze_escape: on every pair it takes
// (a grid, faulted or not; XY/YX/Torus-XY adaptive routing; an XY or YX
// lane) it must equal the node-mode sweep and the per-state oracle field
// for field, and every other pair must stay on the sweep. The path taken is
// read from the escape.analytic_builds counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "deadlock/escape.hpp"
#include "escape_oracle.hpp"
#include "escape_testing.hpp"
#include "obs/metrics.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace genoc {
namespace {

std::uint64_t analytic_builds() {
  return obs::MetricsRegistry::global()
      .counter("escape.analytic_builds")
      .value();
}

/// analyze_escape on the pair, asserting which path it took.
EscapeAnalysis analyze_on_path(const RoutingFunction& adaptive,
                               const RoutingFunction& escape, bool analytic) {
  const std::uint64_t before = analytic_builds();
  EscapeAnalysis analysis = analyze_escape(adaptive, escape);
  EXPECT_EQ(analytic_builds() - before, analytic ? 1u : 0u)
      << (analytic ? "expected the analytic path" : "expected the sweep");
  return analysis;
}

/// analyze_escape against the sweep and the oracle; returns its analysis.
EscapeAnalysis expect_agrees(const RoutingFunction& adaptive,
                             const RoutingFunction& escape, bool analytic) {
  SCOPED_TRACE(adaptive.name() + " / " + escape.name());
  EscapeAnalysis analysis = analyze_on_path(adaptive, escape, analytic);
  expect_identical(analysis, analyze_escape_sweep(adaptive, escape));
  expect_identical(analysis, escape_oracle(adaptive, escape));
  return analysis;
}

/// Calls \p body with every grid of the small-grid loop: w, h <= 7 under
/// every wrap combination, so 2-wide rings and odd extents are included.
void for_each_small_grid(
    const std::function<void(std::int32_t, std::int32_t, bool, bool)>& body) {
  for (std::int32_t w = 1; w <= 7; ++w) {
    for (std::int32_t h = 1; h <= 7; ++h) {
      for (const bool wrap_x : {false, true}) {
        for (const bool wrap_y : {false, true}) {
          if (w * h < 2 || (wrap_x && w < 2) || (wrap_y && h < 2)) {
            continue;
          }
          SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) +
                       " wrap " + std::to_string(wrap_x) +
                       std::to_string(wrap_y));
          body(w, h, wrap_x, wrap_y);
        }
      }
    }
  }
}

/// Every bidirectional link of the grid, once: its East or South channel.
std::vector<LinkFault> grid_links(std::int32_t w, std::int32_t h, bool wrap_x,
                                  bool wrap_y) {
  std::vector<LinkFault> links;
  for (std::int32_t node = 0; node < w * h; ++node) {
    for (const PortName name : {PortName::kEast, PortName::kSouth}) {
      const LinkFault link{node, name};
      if (link_fault_exists(link, w, h, wrap_x, wrap_y)) {
        links.push_back(link);
      }
    }
  }
  return links;
}

/// Every dimension-order pair on \p mesh against the sweep and the oracle,
/// all on the analytic path: XY, YX and (on wrapped grids) Torus-XY
/// adaptive routing, each with an XY and a YX lane. Returns the analyses.
std::vector<EscapeAnalysis> check_dimension_order_pairs(const Mesh2D& mesh) {
  const XYRouting xy(mesh);
  const YXRouting yx(mesh);
  std::vector<EscapeAnalysis> analyses;
  auto check = [&](const RoutingFunction& adaptive) {
    for (const RoutingFunction* lane :
         {static_cast<const RoutingFunction*>(&xy),
          static_cast<const RoutingFunction*>(&yx)}) {
      analyses.push_back(expect_agrees(adaptive, *lane, true));
    }
  };
  check(xy);
  check(yx);
  if (mesh.wraps_x() || mesh.wraps_y()) {
    check(TorusXYRouting(mesh));
  }
  return analyses;
}

TEST(EscapeAnalytic, MatchesSweepAndOracleOnEverySmallGrid) {
  std::size_t analytic_cases = 0;
  for_each_small_grid([&](std::int32_t w, std::int32_t h, bool wrap_x,
                          bool wrap_y) {
    const Mesh2D mesh(w, h, wrap_x, wrap_y);
    const std::uint64_t n = mesh.node_count();
    for (const EscapeAnalysis& analysis : check_dimension_order_pairs(mesh)) {
      ++analytic_cases;
      EXPECT_EQ(analysis.states_checked, n * (2 * n - 1));
      EXPECT_EQ(analysis.missing_states, 0u);
      EXPECT_TRUE(analysis.deadlock_free) << analysis.summary();
    }
  });
  EXPECT_GT(analytic_cases, 600u);
}

TEST(EscapeAnalytic, MatchesSweepAndOracleOnEverySingleFault) {
  std::size_t pairs = 0;
  for_each_small_grid([&](std::int32_t w, std::int32_t h, bool wrap_x,
                          bool wrap_y) {
    for (const LinkFault& link : grid_links(w, h, wrap_x, wrap_y)) {
      SCOPED_TRACE("failed=" + link_fault_token(link));
      pairs +=
          check_dimension_order_pairs(Mesh2D(w, h, wrap_x, wrap_y, {link}))
              .size();
    }
  });
  EXPECT_GT(pairs, 20'000u);
}

TEST(EscapeAnalytic, MatchesSweepAndOracleOnRandomTripleFaults) {
  std::size_t pairs = 0;
  for_each_small_grid([&](std::int32_t w, std::int32_t h, bool wrap_x,
                          bool wrap_y) {
    const std::vector<LinkFault> links = grid_links(w, h, wrap_x, wrap_y);
    if (links.size() < 3) {
      return;
    }
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed * 1'000'003 + links.size());
      const std::vector<std::size_t> order = rng.permutation(links.size());
      const std::vector<LinkFault> faults{links[order[0]], links[order[1]],
                                          links[order[2]]};
      SCOPED_TRACE("failed=" + link_fault_token(faults[0]) + "," +
                   link_fault_token(faults[1]) + "," +
                   link_fault_token(faults[2]));
      pairs +=
          check_dimension_order_pairs(Mesh2D(w, h, wrap_x, wrap_y, faults))
              .size();
    }
  });
  EXPECT_GT(pairs, 3'000u);
}

TEST(EscapeAnalytic, FaultTermsMatchTheHandCountOnTorus16) {
  // torus 16x16, Torus-XY with an XY lane. 17:E is the link (1,1)-(2,1):
  // Torus-XY loses 128 + 112 (node, destination) hops to it, and the XY
  // lane's hop is gone for 224 destinations at (1,1) and 32 at (2,1).
  const Mesh2D intact(16, 16, true, true);
  const Mesh2D cut(16, 16, true, true, {LinkFault{17, PortName::kEast}});
  const TorusXYRouting adaptive(cut);
  const XYRouting lane(cut);
  const EscapeAnalysis analysis = expect_agrees(adaptive, lane, true);
  EXPECT_EQ(analysis.states_checked, 130'816u - (128 + 112));
  EXPECT_EQ(analysis.missing_states, 336u + 64u);
  EXPECT_EQ(analysis.missing_escape, "<2,1,E,IN> / <0,0,L,OUT>");
  EXPECT_EQ(analysis.escape_graph.graph.edge_count(), 3'704u);
  EXPECT_FALSE(analysis.deadlock_free);
  // 15:E is the wrap link (15,0)-(0,0): the lane never takes it.
  const Mesh2D wrap_cut(16, 16, true, true, {LinkFault{15, PortName::kEast}});
  const TorusXYRouting wrap_adaptive(wrap_cut);
  const XYRouting wrap_lane(wrap_cut);
  const EscapeAnalysis wrap = expect_agrees(wrap_adaptive, wrap_lane, true);
  EXPECT_EQ(wrap.states_checked, 130'576u);
  EXPECT_EQ(wrap.missing_states, 0u);
  const EscapeAnalysis unfaulted =
      analyze_escape(TorusXYRouting(intact), XYRouting(intact));
  EXPECT_EQ(wrap.escape_graph.graph.edge_count(),
            unfaulted.escape_graph.graph.edge_count());
  EXPECT_EQ(wrap.escape_graph.graph.edge_count(), 3'716u);
  EXPECT_TRUE(wrap.deadlock_free);
}

TEST(EscapeAnalytic, Torus64MatchesTheSweep) {
  const Mesh2D torus(64, 64, true, true);
  const TorusXYRouting adaptive(torus);
  const XYRouting escape(torus);
  const EscapeAnalysis analysis = analyze_on_path(adaptive, escape, true);
  EXPECT_EQ(analysis.states_checked, 33'550'336u);
  EXPECT_EQ(analysis.escape_graph.graph.edge_count(), 64'004u);
  EXPECT_TRUE(analysis.escape_graph_acyclic);
  EXPECT_TRUE(analysis.deadlock_free);
  ThreadPool pool(4);
  expect_identical(analysis, analyze_escape_sweep(adaptive, escape, &pool));
}

TEST(EscapeAnalytic, AnalyticPathAddsNoSweepWork) {
  const Mesh2D torus(6, 5, true, true);
  const TorusXYRouting adaptive(torus);
  const XYRouting escape(torus);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const std::uint64_t entries = metrics.counter("escape.entry_nodes").value();
  const std::uint64_t lanes = metrics.counter("escape.lane_ports").value();
  const std::uint64_t states =
      metrics.counter("escape.states_checked").value();
  const EscapeAnalysis analysis = analyze_on_path(adaptive, escape, true);
  EXPECT_EQ(metrics.counter("escape.entry_nodes").value(), entries);
  EXPECT_EQ(metrics.counter("escape.lane_ports").value(), lanes);
  EXPECT_EQ(metrics.counter("escape.states_checked").value() - states,
            analysis.states_checked);
}

TEST(EscapeAnalytic, FaultedTorusTakesTheAnalyticPath) {
  const Mesh2D torus(5, 4, true, true, {LinkFault{7, PortName::kNorth}});
  const TorusXYRouting adaptive(torus);
  const XYRouting escape(torus);
  expect_agrees(adaptive, escape, true);
}

TEST(EscapeAnalytic, FullyAdaptiveStaysOnTheSweep) {
  const Mesh2D mesh(5, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting escape(mesh);
  expect_agrees(adaptive, escape, false);
  const Mesh2D faulted(5, 4, false, false, {LinkFault{7, PortName::kNorth}});
  const FullyAdaptiveRouting faulted_adaptive(faulted);
  const XYRouting faulted_escape(faulted);
  expect_agrees(faulted_adaptive, faulted_escape, false);
}

TEST(EscapeAnalytic, PuncturedLaneStaysOnTheSweep) {
  // Torus-XY is an eligible adaptive function; the lane is not XY or YX.
  const Mesh2D torus(5, 4, true, true);
  const TorusXYRouting adaptive(torus);
  const HolePuncturedXY escape(torus);
  const EscapeAnalysis analysis = expect_agrees(adaptive, escape, false);
  EXPECT_GT(analysis.missing_states, 0u);
}

}  // namespace
}  // namespace genoc
