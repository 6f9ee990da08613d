// Torus (wrap-around) topology tests: the classic TOPOLOGY-induced deadlock
// — dimension-order routing is deadlock-free on a mesh but deadlock-PRONE on
// a torus, because wrap links close the ring dependency cycles. The whole
// Theorem-1 pipeline must detect it, realize it, and the escape-lane
// analysis must certify the classic cure.
#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "core/genoc.hpp"
#include "core/travel.hpp"
#include "deadlock/channel_dep.hpp"
#include "deadlock/constraints.hpp"
#include "deadlock/scc_checker.hpp"
#include "deadlock/escape.hpp"
#include "deadlock/witness.hpp"
#include "escape_testing.hpp"
#include "routing/route.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "switching/wormhole.hpp"
#include "topology/mesh.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace genoc {
namespace {

/// The directed wrap-around links of \p mesh: every (cardinal OUT port,
/// IN port) pair whose link crosses a dateline. Empty on an unwrapped mesh.
/// These are exactly the edges that close each ring's dependency cycle
/// under dimension-order routing (see routing/torus_xy.hpp).
std::vector<std::pair<Port, Port>> wrap_links(const Mesh2D& mesh) {
  std::vector<std::pair<Port, Port>> links;
  const std::int32_t east_edge = mesh.width() - 1;
  const std::int32_t south_edge = mesh.height() - 1;
  if (mesh.wraps_x()) {
    for (std::int32_t y = 0; y < mesh.height(); ++y) {
      const Port east_out{east_edge, y, PortName::kEast, Direction::kOut};
      const Port west_out{0, y, PortName::kWest, Direction::kOut};
      links.emplace_back(east_out, mesh.next_in(east_out));
      links.emplace_back(west_out, mesh.next_in(west_out));
    }
  }
  if (mesh.wraps_y()) {
    for (std::int32_t x = 0; x < mesh.width(); ++x) {
      const Port south_out{x, south_edge, PortName::kSouth, Direction::kOut};
      const Port north_out{x, 0, PortName::kNorth, Direction::kOut};
      links.emplace_back(south_out, mesh.next_in(south_out));
      links.emplace_back(north_out, mesh.next_in(north_out));
    }
  }
  return links;
}

TEST(Torus, WrappedMeshKeepsBoundaryPorts) {
  const Mesh2D torus(4, 3, /*wrap_x=*/true, /*wrap_y=*/true);
  EXPECT_TRUE(torus.wraps_x());
  EXPECT_TRUE(torus.wraps_y());
  // Every node has all ten ports on a full torus.
  EXPECT_EQ(torus.port_count(), 4u * 3u * 10u);
  EXPECT_TRUE(torus.exists(Port{0, 0, PortName::kWest, Direction::kIn}));
  EXPECT_TRUE(torus.exists(Port{3, 2, PortName::kEast, Direction::kOut}));
  // Partial wrap: only the wrapped dimension keeps its boundary ports.
  const Mesh2D ring(4, 3, /*wrap_x=*/true, /*wrap_y=*/false);
  EXPECT_TRUE(ring.exists(Port{0, 0, PortName::kWest, Direction::kOut}));
  EXPECT_FALSE(ring.exists(Port{0, 0, PortName::kNorth, Direction::kOut}));
  EXPECT_THROW(Mesh2D(1, 3, /*wrap_x=*/true, false), ContractViolation);
}

TEST(Torus, NextInWrapsAroundTheRing) {
  const Mesh2D torus(4, 3, true, true);
  EXPECT_EQ(torus.next_in(Port{3, 1, PortName::kEast, Direction::kOut}),
            (Port{0, 1, PortName::kWest, Direction::kIn}));
  EXPECT_EQ(torus.next_in(Port{0, 1, PortName::kWest, Direction::kOut}),
            (Port{3, 1, PortName::kEast, Direction::kIn}));
  EXPECT_EQ(torus.next_in(Port{2, 0, PortName::kNorth, Direction::kOut}),
            (Port{2, 2, PortName::kSouth, Direction::kIn}));
  // Interior links are unchanged.
  EXPECT_EQ(torus.next_in(Port{1, 1, PortName::kEast, Direction::kOut}),
            (Port{2, 1, PortName::kWest, Direction::kIn}));
  // On a plain mesh the method equals the free function.
  const Mesh2D mesh(4, 3);
  const Port p{1, 1, PortName::kSouth, Direction::kOut};
  EXPECT_EQ(mesh.next_in(p), next_in(p));
}

TEST(Torus, RoutesTakeTheShorterWay) {
  const Mesh2D torus(6, 6, true, true);
  const TorusXYRouting routing(torus);
  // From (0,0) to (5,0): one westward wrap hop beats five eastward hops.
  const Route west = compute_route(routing, torus.local_in(0, 0),
                                   torus.local_out(5, 0));
  EXPECT_EQ(west.size(), 4u);  // L-in, W-out, E-in, L-out
  EXPECT_EQ(west[1].name, PortName::kWest);
  // From (0,0) to (2,0): plain eastward routing.
  const Route east = compute_route(routing, torus.local_in(0, 0),
                                   torus.local_out(2, 0));
  EXPECT_EQ(east.size(), 6u);
  EXPECT_EQ(east[1].name, PortName::kEast);
  // Every pair routes in at most ceil(W/2)+ceil(H/2) hops.
  for (const NodeCoord s : torus.nodes()) {
    for (const NodeCoord d : torus.nodes()) {
      const Route r = compute_route(routing, torus.local_in(s.x, s.y),
                                    torus.local_out(d.x, d.y));
      EXPECT_LE(r.size(), 2u + 2u * (3u + 3u));
      EXPECT_TRUE(is_valid_route(routing, r, r.front(), r.back()));
    }
  }
}

TEST(Torus, DimensionOrderIsDeadlockProneOnTheTorus) {
  // The headline: identical dimension-order discipline, opposite verdicts
  // on mesh vs torus.
  const Mesh2D mesh(4, 4);
  const XYRouting mesh_xy(mesh);
  EXPECT_TRUE(check_c3(build_dep_graph(mesh_xy)).satisfied);

  const Mesh2D torus(4, 4, true, true);
  const TorusXYRouting torus_xy(torus);
  const PortDepGraph dep = build_dep_graph(torus_xy);
  std::optional<CycleWitness> cycle;
  EXPECT_FALSE(check_c3(dep, &cycle).satisfied);
  ASSERT_TRUE(cycle.has_value());
  // (C-1) and (C-2) still hold — the function is honest about its edges;
  // only acyclicity fails, exactly the Theorem-1 shape.
  EXPECT_TRUE(check_c1(torus_xy, dep).satisfied);
  EXPECT_TRUE(check_c2(torus_xy, dep).satisfied);
}

TEST(Torus, RingCycleIsRealizableAsAWormholeDeadlock) {
  const Mesh2D torus(4, 2, /*wrap_x=*/true, /*wrap_y=*/false);
  const TorusXYRouting routing(torus);
  const PortDepGraph dep = build_dep_graph(routing);
  const auto cycle = find_cycle(dep.graph);
  ASSERT_TRUE(cycle.has_value());
  DeadlockConstruction witness =
      build_deadlock_from_cycle(routing, dep, *cycle, 2);
  const WormholeSwitching wh;
  EXPECT_TRUE(is_deadlock(wh, witness.state));
  const DeadlockCycle recovered = extract_cycle_from_deadlock(wh, witness.state);
  EXPECT_TRUE(cycle_lies_in_dep_graph(dep, recovered.ports));
}

TEST(Torus, MeshXyEscapeLaneCuresTheTorus) {
  // The dateline-style cure in escape-lane form: route the escape lane
  // with plain (non-wrapping) mesh XY — it never requests a wrap link, so
  // its dependency graph is the acyclic mesh graph, and it is available
  // from every torus-reachable state (all ports exist on the torus).
  for (const auto& [w, h] : {std::pair{4, 2}, std::pair{4, 4},
                             std::pair{3, 5}}) {
    const Mesh2D torus(w, h, true, h >= 3);
    const TorusXYRouting adaptive(torus);
    const XYRouting escape(torus);
    const EscapeAnalysis analysis = analyze_escape(adaptive, escape);
    EXPECT_TRUE(analysis.deadlock_free)
        << w << "x" << h << ": " << analysis.summary();
    // And no escape edge uses a wrap link.
    for (const auto& [from, to] : analysis.escape_graph.graph.edges()) {
      const Port a = analysis.escape_graph.port_of(from);
      const Port b = analysis.escape_graph.port_of(to);
      EXPECT_LE(std::abs(a.x - b.x) + std::abs(a.y - b.y), 1)
          << to_string(a) << " -> " << to_string(b);
    }
    // The pair takes the analytic path; the sweep agrees with it.
    expect_identical(analyze_escape_sweep(adaptive, escape), analysis);
    for (const std::size_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      expect_identical(analyze_escape_sweep(adaptive, escape, &pool),
                       analysis);
    }
  }
}

TEST(Torus, UncontendedTrafficStillEvacuates) {
  // Deadlock-prone ≠ always deadlocked: light traffic on the torus runs to
  // completion, and the (C-5) audit stays green on those runs.
  const Mesh2D torus(4, 4, true, true);
  const TorusXYRouting routing(torus);
  Config config(torus, 2);
  config.add_travel(make_travel(1, routing, {0, 0}, {3, 3}, 4));
  config.add_travel(make_travel(2, routing, {2, 2}, {0, 1}, 4));
  const IdentityInjection iid;
  const WormholeSwitching wh;
  const FlitLevelMeasure mu;
  const GenocInterpreter interpreter(iid, wh, mu);
  const GenocRunResult run = interpreter.run(config);
  EXPECT_TRUE(run.evacuated);
  EXPECT_EQ(run.measure_violations, 0u);
}

TEST(Torus, RingCensusMatchesTheTopology) {
  // Each closed ring direction forms one SCC of 2*side ports (an out-port
  // and an in-port per hop). On a 4x4 torus the backward (West/North)
  // directions never sustain more than one hop (the maximal wrap delta is
  // -1, after which the packet turns), so only the forward rings close:
  // W + H = 8 SCCs. On a 6x6 torus two-hop backward journeys exist, both
  // directions ring, and the census doubles to 2(W + H) = 24.
  {
    const Mesh2D torus(4, 4, true, true);
    const SccAnalysis scc =
        analyze_dependencies(build_dep_graph(TorusXYRouting(torus)), 0);
    EXPECT_EQ(scc.nontrivial_scc_count, 8u);
    EXPECT_EQ(scc.largest_scc_size, 8u);
  }
  {
    const Mesh2D torus(6, 6, true, true);
    const SccAnalysis scc =
        analyze_dependencies(build_dep_graph(TorusXYRouting(torus)), 0);
    EXPECT_EQ(scc.nontrivial_scc_count, 24u);
    EXPECT_EQ(scc.largest_scc_size, 12u);
  }
}

TEST(Torus, ChannelGraphAgreesOnTheTorusVerdict) {
  // The Dally–Seitz projection keeps agreeing with the port graph when the
  // cycles come from the topology rather than the routing.
  const Mesh2D torus(4, 4, true, true);
  const TorusXYRouting routing(torus);
  const bool port_acyclic = is_acyclic(build_dep_graph(routing).graph);
  const bool chan_acyclic =
      is_acyclic(build_channel_dep_graph(routing).graph);
  EXPECT_FALSE(port_acyclic);
  EXPECT_EQ(port_acyclic, chan_acyclic);
}

TEST(Torus, PlainRoutingFunctionsStillWorkOnUnwrappedMeshes) {
  // Regression guard for the next_in refactor: nothing changed for plain
  // meshes.
  const Mesh2D mesh(3, 3);
  const XYRouting xy(mesh);
  EXPECT_TRUE(check_c1(xy, build_exy_dep(mesh)).satisfied);
  EXPECT_TRUE(check_c3(build_exy_dep(mesh)).satisfied);
  EXPECT_THROW(TorusXYRouting{mesh}, ContractViolation);
}

TEST(Torus, WrapLinksEnumerateExactlyTheDatelineCrossings) {
  const Mesh2D torus(4, 3, /*wrap_x=*/true, /*wrap_y=*/true);
  const auto links = wrap_links(torus);
  // 2 directed x-wraps per row + 2 directed y-wraps per column.
  EXPECT_EQ(links.size(), 2u * 3u + 2u * 4u);
  for (const auto& [out, in] : links) {
    EXPECT_EQ(out.dir, Direction::kOut);
    EXPECT_EQ(in.dir, Direction::kIn);
    EXPECT_EQ(torus.next_in(out), in);
    // A wrap link really crosses the dateline: the hop is not +-1.
    EXPECT_GT(std::abs(out.x - in.x) + std::abs(out.y - in.y), 1);
  }
  // Partial wrap only reports its own dimension's links.
  EXPECT_EQ(wrap_links(Mesh2D(4, 3, true, false)).size(), 2u * 3u);
  EXPECT_EQ(wrap_links(Mesh2D(4, 3)).size(), 0u);
}

}  // namespace
}  // namespace genoc
