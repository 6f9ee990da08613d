// Tests for the Taktak-style SCC dependency analysis (paper Sec. VIII).
#include <gtest/gtest.h>

#include "deadlock/scc_checker.hpp"
#include "graph/cycle.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/odd_even.hpp"
#include "routing/torus_xy.hpp"
#include "routing/west_first.hpp"
#include "routing/xy.hpp"

namespace genoc {
namespace {

TEST(SccChecker, XYIsDeadlockFree) {
  const Mesh2D mesh(4, 4);
  const XYRouting xy(mesh);
  const PortDepGraph dep = build_dep_graph(xy);
  const SccAnalysis analysis = analyze_dependencies(dep, 4);
  EXPECT_TRUE(analysis.deadlock_free);
  EXPECT_EQ(analysis.nontrivial_scc_count, 0u);
  EXPECT_EQ(analysis.ports_in_cycles, 0u);
  EXPECT_TRUE(analysis.sample_cycles.empty());
  // Every port is its own trivial SCC.
  EXPECT_EQ(analysis.scc_count, mesh.port_count());
  EXPECT_NE(analysis.summary().find("deadlock-free"), std::string::npos);
}

TEST(SccChecker, FullyAdaptiveIsCyclic) {
  const Mesh2D mesh(3, 3);
  const FullyAdaptiveRouting adaptive(mesh);
  const PortDepGraph dep = build_dep_graph(adaptive);
  const SccAnalysis analysis = analyze_dependencies(dep, 8);
  EXPECT_FALSE(analysis.deadlock_free);
  EXPECT_GT(analysis.nontrivial_scc_count, 0u);
  EXPECT_GT(analysis.largest_scc_size, 1u);
  EXPECT_GE(analysis.ports_in_cycles, analysis.largest_scc_size);
  ASSERT_FALSE(analysis.sample_cycles.empty());
  EXPECT_LE(analysis.sample_cycles.size(), 8u);
  for (const CycleWitness& cycle : analysis.sample_cycles) {
    EXPECT_TRUE(is_valid_cycle(dep.graph, cycle));
  }
  EXPECT_NE(analysis.summary().find("CYCLIC"), std::string::npos);
}

TEST(SccChecker, TurnModelsPassTheAdaptiveCheck) {
  // The future-work direction of Sec. IX: adaptive routing functions with
  // turn restrictions pass the SCC-based condition.
  const Mesh2D mesh(4, 4);
  const WestFirstRouting wf(mesh);
  const OddEvenRouting oe(mesh);
  for (const RoutingFunction* routing :
       std::initializer_list<const RoutingFunction*>{&wf, &oe}) {
    const PortDepGraph dep = build_dep_graph(*routing);
    const SccAnalysis analysis = analyze_dependencies(dep, 4);
    EXPECT_TRUE(analysis.deadlock_free) << routing->name() << ": "
                                        << analysis.summary();
  }
}

TEST(SccChecker, SampleBudgetIsRespected) {
  const Mesh2D mesh(3, 3);
  const FullyAdaptiveRouting adaptive(mesh);
  const PortDepGraph dep = build_dep_graph(adaptive);
  EXPECT_EQ(analyze_dependencies(dep, 0).sample_cycles.size(), 0u);
  EXPECT_EQ(analyze_dependencies(dep, 1).sample_cycles.size(), 1u);
  EXPECT_LE(analyze_dependencies(dep, 3).sample_cycles.size(), 3u);
}

TEST(SccChecker, SequentialVerdictsOnMeshAndTorus) {
  // The fast-builder graphs the verify pipeline decides: an XY mesh is one
  // trivial SCC per port; the torus wrap rings are non-trivial SCCs, and
  // the aggregates agree with the acyclicity DFS.
  const Mesh2D mesh(16, 16);
  const PortDepGraph mesh_dep = build_dep_graph_fast(XYRouting(mesh));
  const SccAnalysis acyclic = analyze_dependencies(mesh_dep, 4);
  EXPECT_TRUE(acyclic.deadlock_free);
  EXPECT_EQ(acyclic.scc_count, mesh.port_count());
  EXPECT_EQ(acyclic.nontrivial_scc_count, 0u);
  EXPECT_FALSE(find_cycle(mesh_dep.graph).has_value());

  const Mesh2D torus(8, 8, true, true);
  const PortDepGraph torus_dep = build_dep_graph_fast(TorusXYRouting(torus));
  const SccAnalysis cyclic = analyze_dependencies(torus_dep, 4);
  EXPECT_FALSE(cyclic.deadlock_free);
  EXPECT_GT(cyclic.nontrivial_scc_count, 0u);
  EXPECT_GE(cyclic.ports_in_cycles, cyclic.largest_scc_size);
  EXPECT_LT(cyclic.scc_count, torus.port_count());
  EXPECT_EQ(cyclic.sample_cycles.size(), 4u);
  for (const CycleWitness& cycle : cyclic.sample_cycles) {
    EXPECT_TRUE(is_valid_cycle(torus_dep.graph, cycle));
  }
  EXPECT_TRUE(find_cycle(torus_dep.graph).has_value());
}

}  // namespace
}  // namespace genoc
