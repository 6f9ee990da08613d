// The (C-3) acyclicity pass: AnalysisArtifacts::acyclicity decides with
// find_cycle()'s sequential DFS at every thread count. Pinned here:
//
//  1. The verdict and the witness are the same with no pool and on pools of
//     1, 4 and 8 threads, on every sweep preset (mesh128-xy and
//     torus64-xy-escape included).
//  2. Every witness is a genuine cycle of the graph (is_valid_cycle).
//  3. The result equals find_cycle(graph) and agrees with sequential
//     Tarjan's has_nontrivial_scc(graph), which shares no code with the DFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"
#include "graph/tarjan.hpp"
#include "instance/registry.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/artifacts.hpp"

namespace genoc {
namespace {

/// find_cycle against the Tarjan oracle: same verdict, and a witness (when
/// there is one) that really is a cycle of \p graph.
void expect_agrees_with_tarjan(const Digraph& graph) {
  const std::optional<CycleWitness> cycle = find_cycle(graph);
  EXPECT_EQ(cycle.has_value(), has_nontrivial_scc(graph));
  EXPECT_EQ(is_acyclic(graph), !cycle.has_value());
  if (cycle.has_value()) {
    EXPECT_TRUE(is_valid_cycle(graph, *cycle));
  }
}

Digraph random_digraph(std::size_t vertices, std::size_t edges,
                       std::uint64_t seed, bool forward_only) {
  Rng rng(seed);
  Digraph graph(vertices);
  for (std::size_t i = 0; i < edges; ++i) {
    std::size_t from = rng.below(vertices);
    std::size_t to = rng.below(vertices);
    if (forward_only) {
      if (from == to) {
        continue;
      }
      if (from > to) {
        std::swap(from, to);
      }
    }
    graph.add_edge(from, to);
  }
  graph.finalize();
  return graph;
}

TEST(Acyclicity, HandGraphsAgreeWithTarjan) {
  Digraph empty(0);
  empty.finalize();
  EXPECT_FALSE(find_cycle(empty).has_value());
  expect_agrees_with_tarjan(empty);

  Digraph single(1);
  single.finalize();
  expect_agrees_with_tarjan(single);

  Digraph self_loop(2);
  self_loop.add_edge(0, 0);
  self_loop.add_edge(0, 1);
  self_loop.finalize();
  ASSERT_TRUE(find_cycle(self_loop).has_value());
  EXPECT_EQ(*find_cycle(self_loop), CycleWitness{0});
  expect_agrees_with_tarjan(self_loop);

  Digraph path(6);
  for (std::size_t v = 0; v + 1 < 6; ++v) {
    path.add_edge(v, v + 1);
  }
  path.finalize();
  EXPECT_FALSE(find_cycle(path).has_value());
  expect_agrees_with_tarjan(path);

  // Two 3-cycles joined by a bridge, plus a dangling tail.
  Digraph bridged(8);
  for (const auto& [from, to] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3}, {5, 6},
           {6, 7}}) {
    bridged.add_edge(from, to);
  }
  bridged.finalize();
  ASSERT_TRUE(find_cycle(bridged).has_value());
  EXPECT_EQ(*find_cycle(bridged), (CycleWitness{0, 1, 2}));
  expect_agrees_with_tarjan(bridged);
}

TEST(Acyclicity, RandomDigraphsAgreeWithTarjan) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    expect_agrees_with_tarjan(random_digraph(3000, 4500, seed, false));
    // Edges only from lower to higher ids: acyclic by construction.
    const Digraph dag = random_digraph(3000, 9000, seed, true);
    EXPECT_FALSE(find_cycle(dag).has_value());
    expect_agrees_with_tarjan(dag);
  }
  const Digraph giant = random_digraph(12000, 30000, 2010, false);
  expect_agrees_with_tarjan(giant);
  // Tarjan's ids are a reverse topological order of the condensation.
  const SccResult scc = tarjan_scc(giant);
  for (const auto& [from, to] : giant.edges()) {
    EXPECT_GE(scc.component[from], scc.component[to]);
  }
}

TEST(Acyclicity, DependencyGraphsAgreeWithTarjan) {
  const Mesh2D mesh(16, 16);
  const PortDepGraph xy = build_dep_graph_fast(XYRouting(mesh));
  EXPECT_FALSE(find_cycle(xy.graph).has_value());
  expect_agrees_with_tarjan(xy.graph);

  const Mesh2D torus(8, 8, true, true);
  const PortDepGraph rings = build_dep_graph_fast(TorusXYRouting(torus));
  EXPECT_TRUE(find_cycle(rings.graph).has_value());
  expect_agrees_with_tarjan(rings.graph);

  const Mesh2D small(8, 8);
  const PortDepGraph adaptive =
      build_dep_graph_fast(FullyAdaptiveRouting(small));
  EXPECT_TRUE(find_cycle(adaptive.graph).has_value());
  expect_agrees_with_tarjan(adaptive.graph);
}

TEST(Acyclicity, Mesh128MatchesTarjan) {
  const Mesh2D mesh(128, 128);
  const PortDepGraph xy = build_dep_graph_fast(XYRouting(mesh));
  EXPECT_FALSE(find_cycle(xy.graph).has_value());
  expect_agrees_with_tarjan(xy.graph);
}

// The two large-graph checks below keep the ParallelScc suite name of the
// pooled SCC decomposition they used to test. The pooled part is now the
// dependency-graph build, so both take the sweep (a failed link keeps a
// grid off the analytic build, which never reads the pool); acyclicity on
// the graph it yields is decided by find_cycle() and checked against
// sequential Tarjan.

TEST(ParallelScc, SixtyFourBySixtyFourMatchesTarjan) {
  const Mesh2D mesh(64, 64, false, false, {LinkFault{2080, PortName::kEast}});
  const XYRouting xy(mesh);
  ASSERT_FALSE(xy.has_in_port_unions());
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const PortDepGraph dep = build_dep_graph_fast(xy, &pool);
    EXPECT_FALSE(find_cycle(dep.graph).has_value());
    expect_agrees_with_tarjan(dep.graph);
    // Acyclic: every Tarjan component is a single vertex.
    EXPECT_EQ(tarjan_scc(dep.graph).components.size(),
              dep.graph.vertex_count());
  }
}

TEST(ParallelScc, LevelSynchronousTrimOnCyclicTorus64) {
  // The 64x64 torus keeps its wrap rings (one failed link breaks only its
  // own): a cyclic graph at the scale the level-synchronous trim used to
  // target. Built on pools of 1, 4 and 8 threads, it must give the same
  // cycle witness each time.
  const Mesh2D torus(64, 64, true, true, {LinkFault{2080, PortName::kNorth}});
  const TorusXYRouting routing(torus);
  ASSERT_FALSE(routing.has_in_port_unions());
  const PortDepGraph sequential = build_dep_graph_fast(routing);
  const std::optional<CycleWitness> want = find_cycle(sequential.graph);
  ASSERT_TRUE(want.has_value());
  expect_agrees_with_tarjan(sequential.graph);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const PortDepGraph rings = build_dep_graph_fast(routing, &pool);
    EXPECT_EQ(find_cycle(rings.graph), want);
    expect_agrees_with_tarjan(rings.graph);
  }
}

TEST(Acyclicity, IdenticalAcrossPoolsOnEveryPreset) {
  std::vector<InstanceSpec> presets = InstanceRegistry::global().sweep_presets();
  for (const char* name : {"mesh128-xy", "torus64-xy-escape"}) {
    EXPECT_TRUE(std::any_of(presets.begin(), presets.end(),
                            [name](const InstanceSpec& spec) {
                              return spec.name == name;
                            }))
        << name << " left the sweep; pin its graph here explicitly";
  }
  ThreadPool one(1);
  ThreadPool four(4);
  ThreadPool eight(8);
  std::size_t cyclic = 0;
  for (const InstanceSpec& spec : presets) {
    SCOPED_TRACE(spec.name);
    AnalysisArtifacts sequential(spec);
    const AcyclicityArtifact& want = sequential.acyclicity(false, nullptr);
    const Digraph& graph = sequential.dep_graph(false, nullptr).graph;
    EXPECT_EQ(want.acyclic, !want.cycle.has_value());
    EXPECT_EQ(want.cycle, find_cycle(graph));
    EXPECT_EQ(want.acyclic, !has_nontrivial_scc(graph));
    if (want.cycle.has_value()) {
      ++cyclic;
      EXPECT_TRUE(is_valid_cycle(graph, *want.cycle));
    }
    for (ThreadPool* pool : {&one, &four, &eight}) {
      AnalysisArtifacts pooled(spec);
      const AcyclicityArtifact& got = pooled.acyclicity(false, pool);
      EXPECT_EQ(got.acyclic, want.acyclic) << pool->thread_count() << "t";
      EXPECT_EQ(got.cycle, want.cycle) << pool->thread_count() << "t";
    }
  }
  // The sweep must exercise both outcomes for the witness checks to bite.
  EXPECT_GT(cyclic, 0u);
  EXPECT_LT(cyclic, presets.size());
}

}  // namespace
}  // namespace genoc
