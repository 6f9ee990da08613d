// Tests for the analytic path of analyze_escape: on every pair it takes
// (an unfaulted grid, XY/YX/Torus-XY adaptive routing, an XY or YX lane) it
// must equal the node-mode sweep and the per-state oracle field for field,
// and every other pair must stay on the sweep. The path taken is read from
// the escape.analytic_builds counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "deadlock/escape.hpp"
#include "escape_oracle.hpp"
#include "escape_testing.hpp"
#include "obs/metrics.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
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

TEST(EscapeAnalytic, MatchesSweepAndOracleOnEverySmallGrid) {
  std::size_t analytic_cases = 0;
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
          const Mesh2D mesh(w, h, wrap_x, wrap_y);
          const std::uint64_t n = mesh.node_count();
          auto check = [&](const RoutingFunction& adaptive,
                           const RoutingFunction& lane, bool analytic) {
            const EscapeAnalysis analysis =
                expect_agrees(adaptive, lane, analytic);
            if (analytic) {
              ++analytic_cases;
              EXPECT_EQ(analysis.states_checked, n * (2 * n - 1));
              EXPECT_EQ(analysis.missing_states, 0u);
              EXPECT_TRUE(analysis.deadlock_free) << analysis.summary();
            }
          };
          const XYRouting xy(mesh);
          const YXRouting yx(mesh);
          // XY and YX publish in-port unions on plain meshes only.
          const bool wrapped = wrap_x || wrap_y;
          check(xy, yx, !wrapped);
          check(yx, xy, !wrapped);
          check(xy, xy, !wrapped);
          if (wrapped) {
            const TorusXYRouting torus_xy(mesh);
            check(torus_xy, xy, true);
            check(torus_xy, yx, true);
          }
        }
      }
    }
  }
  EXPECT_GT(analytic_cases, 300u);
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

TEST(EscapeAnalytic, FaultedTorusStaysOnTheSweep) {
  const Mesh2D torus(5, 4, true, true, {LinkFault{7, PortName::kNorth}});
  const TorusXYRouting adaptive(torus);
  const XYRouting escape(torus);
  expect_agrees(adaptive, escape, false);
}

TEST(EscapeAnalytic, FullyAdaptiveStaysOnTheSweep) {
  const Mesh2D mesh(5, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting escape(mesh);
  expect_agrees(adaptive, escape, false);
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
