// BatchRunner tests: the shared pool's parallel_for contract (full
// coverage, nesting without deadlock, exception propagation) and the
// headline determinism guarantee — the sharded dependency-graph build and
// the parallel instance sweep are bit-identical to their sequential
// counterparts.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "instance/batch_runner.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "routing/odd_even.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"

namespace genoc {
namespace {

TEST(BatchRunner, ParallelForCoversEveryIndexExactlyOnce) {
  BatchRunner runner(4);
  EXPECT_EQ(runner.thread_count(), 4u);
  for (const std::size_t count : {0u, 1u, 7u, 64u, 1000u}) {
    for (const std::size_t grain : {1u, 3u, 64u, 5000u}) {
      std::vector<std::atomic<int>> hits(count);
      runner.parallel_for(count, grain,
                          [&hits](std::size_t begin, std::size_t end) {
                            for (std::size_t i = begin; i < end; ++i) {
                              hits[i].fetch_add(1);
                            }
                          });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " count " << count
                                     << " grain " << grain;
      }
    }
  }
}

TEST(BatchRunner, NestedParallelForDoesNotDeadlock) {
  BatchRunner runner(4);
  std::atomic<int> total{0};
  runner.parallel_for(8, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      runner.parallel_for(16, 4, [&total](std::size_t b, std::size_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(BatchRunner, PropagatesTheFirstException) {
  BatchRunner runner(3);
  EXPECT_THROW(
      runner.parallel_for(32, 1,
                          [](std::size_t begin, std::size_t) {
                            if (begin == 17) {
                              throw std::runtime_error("shard failed");
                            }
                          }),
      std::runtime_error);
  // The pool survives a throwing loop and remains usable.
  std::atomic<int> sum{0};
  runner.parallel_for(10, 2, [&sum](std::size_t b, std::size_t e) {
    sum.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(sum.load(), 10);
}

TEST(BatchRunner, SingleThreadedPoolStillWorks) {
  BatchRunner runner(1);  // caller-only: no workers at all
  EXPECT_EQ(runner.thread_count(), 1u);
  std::atomic<int> sum{0};
  runner.parallel_for(100, 7, [&sum](std::size_t b, std::size_t e) {
    sum.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(sum.load(), 100);
}

/// The determinism bar: a sharded build (each shard's edge bits OR-ed,
/// then emitted once) bit-identical to the generic oracle and to the same
/// builder without a pool — equal vertex counts, equal CSR edge lists.
/// Only sweep-path routings shard, so \p routing must not publish in-port
/// unions: the analytic build never reads the pool.
void expect_identical(const RoutingFunction& routing, BatchRunner& runner) {
  ASSERT_FALSE(routing.has_in_port_unions()) << routing.name();
  const PortDepGraph sequential = build_dep_graph(routing);
  const PortDepGraph parallel = build_dep_graph_fast(routing, &runner);
  ASSERT_EQ(parallel.graph.vertex_count(), sequential.graph.vertex_count());
  ASSERT_EQ(parallel.graph.edge_count(), sequential.graph.edge_count());
  EXPECT_EQ(parallel.graph.edges(), sequential.graph.edges())
      << routing.name();
  EXPECT_EQ(parallel.graph.edges(), build_dep_graph_fast(routing).graph.edges())
      << routing.name();
}

TEST(BatchRunner, ParallelDepGraphIsBitIdenticalToSequential) {
  // Small grids, since the generic oracle is O(ports x destinations): a
  // failed link keeps XY (node mode) and Torus-XY (cyclic) on the sweep,
  // and Odd-Even always sweeps in port mode.
  const Mesh2D mesh(12, 12, false, false, {LinkFault{65, PortName::kEast}});
  const Mesh2D odd_even_mesh(9, 7);
  const Mesh2D torus(6, 6, /*wrap_x=*/true, /*wrap_y=*/true,
                     {LinkFault{14, PortName::kNorth}});
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    BatchRunner runner(threads);
    expect_identical(XYRouting(mesh), runner);
    expect_identical(OddEvenRouting(odd_even_mesh), runner);
    expect_identical(TorusXYRouting(torus), runner);  // cyclic graph
  }
}

TEST(BatchRunner, RepeatedParallelBuildsAreStable) {
  BatchRunner runner(4);
  const Mesh2D mesh(8, 8);
  const XYRouting routing(mesh);
  const PortDepGraph first = build_dep_graph_fast(routing, &runner);
  for (int i = 0; i < 3; ++i) {
    const PortDepGraph again = build_dep_graph_fast(routing, &runner);
    EXPECT_EQ(again.graph.edges(), first.graph.edges());
  }
}

TEST(BatchRunner, BatchVerifyMatchesSequentialVerdicts) {
  // The sweep population, capped at the 64x64 scale: mesh128-xy (now in
  // the default sweep — the heavy jail is retired) costs ~10 s per
  // sequential+parallel pass under ASan and adds no determinism coverage
  // the 64x64 presets don't already provide.
  auto presets = InstanceRegistry::global().sweep_presets();
  std::erase_if(presets, [](const InstanceSpec& spec) {
    return spec.node_count() > InstanceRegistry::kOracleNodeLimit;
  });
  BatchRunner runner(4);
  const std::vector<InstanceVerdict> parallel =
      verify_instances(presets, &runner);
  const std::vector<InstanceVerdict> sequential =
      verify_instances(presets, nullptr);
  ASSERT_EQ(parallel.size(), presets.size());
  ASSERT_EQ(sequential.size(), presets.size());
  for (std::size_t i = 0; i < presets.size(); ++i) {
    EXPECT_EQ(parallel[i].instance, presets[i].name);
    EXPECT_EQ(parallel[i].instance, sequential[i].instance);
    EXPECT_EQ(parallel[i].deadlock_free, sequential[i].deadlock_free);
    EXPECT_EQ(parallel[i].dep_acyclic, sequential[i].dep_acyclic);
    EXPECT_EQ(parallel[i].edges, sequential[i].edges);
    EXPECT_EQ(parallel[i].ports, sequential[i].ports);
    EXPECT_EQ(parallel[i].method, sequential[i].method);
    EXPECT_EQ(parallel[i].note, sequential[i].note);
    EXPECT_EQ(parallel[i].checks, sequential[i].checks);
  }
}

TEST(BatchRunner, LargeInstanceVerifiesOnThePool) {
  // The acceptance-bar shape: a 32x32 spec through the parallel pipeline.
  std::string error;
  const auto spec = InstanceRegistry::global().resolve(
      "topology=mesh size=32x32 routing=xy", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  BatchRunner runner(4);
  InstanceVerifyOptions options;
  options.runner = &runner;
  const InstanceVerdict verdict = NetworkInstance(*spec).verify(options);
  EXPECT_TRUE(verdict.deadlock_free) << verdict.note;
  EXPECT_EQ(verdict.ports, NetworkInstance(*spec).mesh().port_count());
}

}  // namespace
}  // namespace genoc
