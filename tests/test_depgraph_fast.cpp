// The fast per-destination dependency-graph builder against its oracle.
//
// The acceptance bar of the perf issue: build_dep_graph_fast (and its
// destination-sharded parallel twin) must produce a finalized Digraph
// BIT-IDENTICAL to the generic (port, destination)-product construction on
// every registry preset — torus and adaptive instances included — and the
// node-uniform sweep must agree with the generic port-level BFS it
// specializes. The node_out_mask closed forms are additionally
// cross-validated against append_next_hops on every in-port, which is the
// uniformity claim the node sweep rests on.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "deadlock/depgraph.hpp"
#include "instance/batch_runner.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "routing/odd_even.hpp"
#include "routing/sweep.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace genoc {
namespace {

Digraph digraph_from_sweeper(RouteSweeper& sweeper, const Topology& topo) {
  std::vector<std::uint64_t> bits(topo.port_count(), 0);
  for (std::size_t dest = 0; dest < topo.destination_count(); ++dest) {
    sweeper.sweep(dest, bits.data(), nullptr);
  }
  return emit_dep_graph_from_out_bits(topo, bits).graph;
}

void expect_fast_equals_generic(const InstanceSpec& spec) {
  SCOPED_TRACE(spec.name);
  const NetworkInstance instance(spec);
  const PortDepGraph fast = build_dep_graph_fast(instance.routing());
  ASSERT_EQ(fast.graph.vertex_count(), instance.topology().port_count());
  const PortDepGraph generic = build_dep_graph(instance.routing());
  EXPECT_EQ(fast.graph.edge_count(), generic.graph.edge_count());
  EXPECT_EQ(fast.graph.edges(), generic.graph.edges());
}

TEST(DepGraphFast, BitIdenticalToGenericOnEverySmallPreset) {
  const InstanceRegistry& registry = InstanceRegistry::global();
  for (const InstanceSpec& spec : registry.presets()) {
    if (spec.width > 32 || spec.height > 32) {
      continue;  // the 64x64 oracle runs get their own (timed) test cases
    }
    expect_fast_equals_generic(spec);
  }
}

// The 64x64 oracle comparisons are minutes-scale under sanitizers, so
// each runs as its own test case (the CTest timeout applies per test).
TEST(DepGraphFast, BitIdenticalToGenericAt64x64Mesh) {
  std::string error;
  const auto spec = InstanceRegistry::global().resolve("mesh64-xy", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  expect_fast_equals_generic(*spec);
}

TEST(DepGraphFast, BitIdenticalToGenericAt64x64Torus) {
  std::string error;
  const auto spec =
      InstanceRegistry::global().resolve("torus64-xy-escape", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  expect_fast_equals_generic(*spec);
}

// dimension_order_in_port_union is exact per position, and the torus
// table turns on odd and sub-4 wrapped extents (shortest-way ties break
// positive), which no preset has: every W x H up to 7 x 7 under every wrap
// combination Mesh2D accepts pins the closed form against the oracle.
TEST(DepGraphFast, DimensionOrderUnionsMatchOracleOnEverySmallGrid) {
  for (std::int32_t w = 1; w <= 7; ++w) {
    for (std::int32_t h = 1; h <= 7; ++h) {
      if (w * h < 2) {
        continue;  // Mesh2D needs two nodes
      }
      SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
      const Mesh2D mesh(w, h);
      const XYRouting xy(mesh);
      const YXRouting yx(mesh);
      for (const RoutingFunction* routing :
           std::initializer_list<const RoutingFunction*>{&xy, &yx}) {
        SCOPED_TRACE(routing->name());
        ASSERT_TRUE(routing->has_in_port_unions());
        EXPECT_EQ(build_dep_graph_analytic(*routing).graph.edges(),
                  build_dep_graph(*routing).graph.edges());
      }
      for (const auto& [wrap_x, wrap_y] :
           {std::pair{true, false}, {false, true}, {true, true}}) {
        if ((wrap_x && w < 2) || (wrap_y && h < 2)) {
          continue;  // a wrapped dimension needs two nodes
        }
        SCOPED_TRACE(std::string("wrap x ") + (wrap_x ? "on" : "off") +
                     ", y " + (wrap_y ? "on" : "off"));
        const Mesh2D wrapped(w, h, wrap_x, wrap_y);
        const TorusXYRouting routing(wrapped);
        ASSERT_TRUE(routing.has_in_port_unions());
        const auto oracle = build_dep_graph(routing).graph.edges();
        EXPECT_EQ(build_dep_graph_analytic(routing).graph.edges(), oracle);
        // Production no longer sweeps unfaulted tori; keep the node-mode
        // sweep (still the path of faulted ones) pinned here.
        RouteSweeper sweeper(routing);
        ASSERT_TRUE(sweeper.node_mode());
        EXPECT_EQ(digraph_from_sweeper(sweeper, wrapped).edges(), oracle);
      }
    }
  }
}

TEST(DepGraphFast, FaultedTorusAndRingStayOnTheSweep) {
  // Routes dead-end at a failed link, so the full-grid union would
  // over-approximate: faulted wrapped grids must not take the analytic
  // build, and the sweep they take must still equal the oracle.
  const Mesh2D torus(5, 4, true, true, {LinkFault{7, PortName::kNorth}});
  const Mesh2D ring(5, 3, true, false, {LinkFault{4, PortName::kEast}});
  for (const Mesh2D* mesh : {&torus, &ring}) {
    SCOPED_TRACE(mesh->family());
    const TorusXYRouting routing(*mesh);
    EXPECT_FALSE(routing.has_in_port_unions());
    EXPECT_EQ(build_dep_graph_fast(routing).graph.edges(),
              build_dep_graph(routing).graph.edges());
  }
}

TEST(DepGraphFast, LargestPresetFastMatchesParallel) {
  // The 128x128 oracle run costs minutes even in release; the fast
  // builder is instead cross-checked against the pooled build, and both
  // sweep modes (size-generic code) agree with the oracle on every other
  // preset up to 64x64. (Selected by size, not by the heavy tag — the
  // heavy jail is retired and the tag list is empty today.) These presets
  // take the analytic build; the sweep-path pooled build is covered by
  // ParallelBuildBitIdenticalAcrossThreadCounts.
  const InstanceRegistry& registry = InstanceRegistry::global();
  for (const InstanceSpec& spec : registry.presets()) {
    if (spec.node_count() <= InstanceRegistry::kOracleNodeLimit) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    const NetworkInstance instance(spec);
    const PortDepGraph fast = build_dep_graph_fast(instance.routing());
    BatchRunner runner(4);
    const PortDepGraph parallel =
        build_dep_graph_fast(instance.routing(), &runner);
    EXPECT_EQ(fast.graph.edges(), parallel.graph.edges());
  }
}

TEST(DepGraphFast, PortModeSweepMatchesGenericOnEveryPreset) {
  // The generic BFS fallback (what non-node-uniform functions like
  // Odd-Even always use) must itself reproduce the oracle, on every
  // preset — this is also the path that vouches for the heavy presets
  // whose oracle run is skipped above.
  const InstanceRegistry& registry = InstanceRegistry::global();
  for (const InstanceSpec& spec : registry.presets()) {
    if (spec.node_count() > InstanceRegistry::kOracleNodeLimit) {
      // A 128x128 port-level BFS costs ~20 s for no extra code coverage:
      // both sweep modes are size-generic and already agree at 64x64.
      continue;
    }
    SCOPED_TRACE(spec.name);
    const NetworkInstance instance(spec);
    RouteSweeper sweeper(instance.routing());
    sweeper.force_port_mode();
    const Digraph swept =
        digraph_from_sweeper(sweeper, instance.topology());
    const PortDepGraph fast = build_dep_graph_fast(instance.routing());
    EXPECT_EQ(swept.edges(), fast.graph.edges());
    if (spec.width <= 16 && spec.height <= 16) {
      const PortDepGraph generic = build_dep_graph(instance.routing());
      EXPECT_EQ(swept.edges(), generic.graph.edges());
    }
  }
}

TEST(DepGraphFast, NodeMaskMatchesAppendNextHopsOnEveryInPort) {
  // The node-uniformity contract, checked literally: for every node and
  // destination, node_out_mask equals the hop set append_next_hops yields
  // from EVERY in-port of the node; cardinal OUT ports forward along
  // their link and Local OUT ports terminate.
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.width > 16 || spec.height > 16) {
      continue;  // the small presets cover every routing family
    }
    if (!spec.is_grid()) {
      continue;  // node_out_mask/append_next_hops are the grid dialect
    }
    const NetworkInstance instance(spec);
    const RoutingFunction& routing = instance.routing();
    if (!routing.node_uniform()) {
      continue;  // Odd-Even: turns read the in-port name by design
    }
    SCOPED_TRACE(spec.name);
    const Mesh2D& mesh = instance.mesh();
    std::vector<Port> hops;
    for (const Port& d : mesh.destinations()) {
      for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
        const Port p = mesh.port(pid);
        hops.clear();
        routing.append_next_hops(p, d, hops);
        if (p.dir == Direction::kOut) {
          if (p.name == PortName::kLocal) {
            EXPECT_TRUE(hops.empty()) << to_string(p);
          } else {
            ASSERT_EQ(hops.size(), 1u) << to_string(p);
            EXPECT_EQ(hops.front(), mesh.next_in(p)) << to_string(p);
          }
          continue;
        }
        // The hops also come out in strictly ascending PortName order
        // (E, W, N, S, L): the simulator's rng.pick indexes into them.
        std::uint8_t seen = 0;
        for (const Port& hop : hops) {
          EXPECT_EQ(hop.dir, Direction::kOut) << to_string(p);
          EXPECT_EQ(hop.x, p.x);
          EXPECT_EQ(hop.y, p.y);
          EXPECT_LT(seen, port_name_bit(hop.name))
              << "hop " << to_string(hop) << " out of PortName order from "
              << to_string(p) << " dest " << to_string(d);
          seen |= port_name_bit(hop.name);
        }
        EXPECT_EQ(seen, routing.node_out_mask(p.x, p.y, d))
            << "in-port " << to_string(p) << " dest " << to_string(d);
      }
    }
  }
}

TEST(DepGraphFast, NodeAndPortModeClosureRowsAgree) {
  // The closure rows (RoutingFunction::closure_row) are swept by whichever
  // mode the routing selects; the two must mark the same visited set per
  // destination.
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.width > 16 || spec.height > 16) {
      continue;
    }
    const NetworkInstance instance(spec);
    if (!instance.routing().node_uniform()) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    const Topology& topo = instance.topology();
    RouteSweeper nodes(instance.routing());
    RouteSweeper ports(instance.routing());
    ports.force_port_mode();
    ASSERT_TRUE(nodes.node_mode());
    std::vector<std::uint64_t> node_row(nodes.row_words());
    std::vector<std::uint64_t> port_row(ports.row_words());
    for (std::size_t dest = 0; dest < topo.destination_count(); ++dest) {
      std::fill(node_row.begin(), node_row.end(), 0);
      std::fill(port_row.begin(), port_row.end(), 0);
      nodes.sweep(dest, nullptr, node_row.data());
      ports.sweep(dest, nullptr, port_row.data());
      EXPECT_EQ(node_row, port_row) << "destination node " << dest;
    }
  }
}

TEST(DepGraphFast, ParallelBuildBitIdenticalAcrossThreadCounts) {
  // Sweep-path routings only (the analytic build never reads the pool): a
  // faulted 64x64 mesh (node mode), Odd-Even (port mode, at 32x32: its BFS
  // is the slowest sweep) and a faulted 64x64 torus (cyclic).
  const Mesh2D mesh(64, 64, false, false, {LinkFault{2080, PortName::kEast}});
  const Mesh2D odd_even_mesh(32, 32);
  const Mesh2D torus(64, 64, true, true, {LinkFault{2080, PortName::kNorth}});
  const XYRouting xy(mesh);
  const OddEvenRouting odd_even(odd_even_mesh);
  const TorusXYRouting torus_xy(torus);
  for (const RoutingFunction* routing :
       std::initializer_list<const RoutingFunction*>{&xy, &odd_even,
                                                     &torus_xy}) {
    SCOPED_TRACE(routing->name());
    ASSERT_FALSE(routing->has_in_port_unions());
    const PortDepGraph fast = build_dep_graph_fast(*routing);
    for (const std::size_t threads : {1u, 4u, 8u}) {
      BatchRunner runner(threads);
      const PortDepGraph parallel = build_dep_graph_fast(*routing, &runner);
      EXPECT_EQ(parallel.graph.edges(), fast.graph.edges())
          << threads << " threads";
    }
  }
}

TEST(DepGraphFast, VerdictIdenticalWithGenericBuilder) {
  // The generic oracle builds every graph and changes nothing observable
  // but cpu_ms. The fast side verifies through an ArtifactStore, as the
  // CLI does, so fault variants inherit their base's verdict or build
  // their graph by delta; the generic side has a store of its own, so it
  // never reads a graph the fast builders made. The wrapped ad-hoc specs
  // have odd and sub-4 wrapped extents, which no preset has.
  for (const char* name :
       {"hermes", "mesh8-adaptive", "hermes-torus", "mesh16-oddeven",
        "topology=ring size=5x3 routing=torus_xy escape=xy",
        "topology=torus size=3x7 routing=torus_xy escape=xy",
        "topology=torus size=2x5 routing=torus_xy escape=xy",
        "topology=mesh size=8x8 routing=xy failed=9:E,20:S",
        "topology=mesh size=6x5 routing=west_first failed=7:E,12:N",
        "topology=torus size=8x8 routing=torus_xy escape=xy "
        "failed=0:E,27:N"}) {
    SCOPED_TRACE(name);
    std::string error;
    const auto spec = InstanceRegistry::global().resolve(name, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    ArtifactStore fast_store;
    ArtifactStore generic_store;
    InstanceVerifyOptions fast_options;
    fast_options.artifacts = &fast_store;
    InstanceVerifyOptions generic_options = fast_options;
    generic_options.artifacts = &generic_store;
    generic_options.generic_builder = true;
    const VerifyReport fast_report = verify_instance_reports(
        {*spec}, VerifyPipeline::standard(), nullptr, fast_options)[0];
    const VerifyReport generic_report = verify_instance_reports(
        {*spec}, VerifyPipeline::standard(), nullptr, generic_options)[0];
    EXPECT_EQ(generic_report.cache.dep_graph.misses, 1u);
    const InstanceVerdict& fast = fast_report.verdict;
    const InstanceVerdict& generic = generic_report.verdict;
    EXPECT_EQ(fast.deadlock_free, generic.deadlock_free);
    EXPECT_EQ(fast.dep_acyclic, generic.dep_acyclic);
    EXPECT_EQ(fast.edges, generic.edges);
    EXPECT_EQ(fast.method, generic.method);
    EXPECT_EQ(fast.note, generic.note);
    EXPECT_EQ(fast.checks, generic.checks);
    EXPECT_EQ(fast_report.diagnostics, generic_report.diagnostics);
    ASSERT_EQ(fast_report.stages.size(), generic_report.stages.size());
    for (std::size_t i = 0; i < fast_report.stages.size(); ++i) {
      StageStats fast_stage = fast_report.stages[i];
      StageStats generic_stage = generic_report.stages[i];
      fast_stage.wall_ms = generic_stage.wall_ms = 0.0;
      fast_stage.cpu_ms = generic_stage.cpu_ms = 0.0;
      EXPECT_EQ(fast_stage, generic_stage);
    }
    const Digraph& fast_graph =
        fast_store.acquire(*spec)->dep_graph(false, nullptr).graph;
    const Digraph& generic_graph =
        generic_store.acquire(*spec)->dep_graph(true, nullptr).graph;
    EXPECT_EQ(fast_graph.edges(), generic_graph.edges());
  }
}

}  // namespace
}  // namespace genoc
