// Tests for the port dependency graph (paper Sec. IV.A, V.6, Fig. 3):
// next_outs, the closed-form Exy_dep, and its equality with the generic
// construction.
#include <gtest/gtest.h>

#include <algorithm>

#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"
#include "routing/xy.hpp"
#include "util/require.hpp"

namespace genoc {
namespace {

TEST(NextOuts, MatchesPaperCaseStructureOnInteriorNode) {
  const Mesh2D mesh(3, 3);
  auto outs_of = [&](PortName name) {
    const Port p{1, 1, name, Direction::kIn};
    auto outs = next_outs_xy(mesh, p);
    std::vector<PortName> names;
    for (const Port& q : outs) {
      EXPECT_EQ(q.dir, Direction::kOut);
      EXPECT_EQ(q.x, 1);
      EXPECT_EQ(q.y, 1);
      names.push_back(q.name);
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  auto sorted = [](std::vector<PortName> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  // L-in depends on every out-port.
  EXPECT_EQ(outs_of(PortName::kLocal),
            sorted({PortName::kEast, PortName::kWest, PortName::kNorth,
                    PortName::kSouth, PortName::kLocal}));
  // E-in (westbound): W, N, S, L — never E (no U-turn).
  EXPECT_EQ(outs_of(PortName::kEast),
            sorted({PortName::kWest, PortName::kNorth, PortName::kSouth,
                    PortName::kLocal}));
  // W-in (eastbound): E, N, S, L.
  EXPECT_EQ(outs_of(PortName::kWest),
            sorted({PortName::kEast, PortName::kNorth, PortName::kSouth,
                    PortName::kLocal}));
  // N-in (southbound): S, L only — XY forbids vertical-to-horizontal turns.
  EXPECT_EQ(outs_of(PortName::kNorth),
            sorted({PortName::kSouth, PortName::kLocal}));
  // S-in (northbound): N, L only.
  EXPECT_EQ(outs_of(PortName::kSouth),
            sorted({PortName::kNorth, PortName::kLocal}));
}

TEST(NextOuts, FiltersBoundaryPorts) {
  const Mesh2D mesh(2, 2);
  // L-in at the north-west corner (0,0): only E, S, L out-ports exist.
  const auto outs = next_outs_xy(mesh, mesh.local_in(0, 0));
  EXPECT_EQ(outs.size(), 3u);
  for (const Port& q : outs) {
    EXPECT_TRUE(mesh.exists(q));
  }
}

TEST(NextOuts, RequiresInPort) {
  const Mesh2D mesh(2, 2);
  EXPECT_THROW(next_outs_xy(mesh, mesh.local_out(0, 0)), ContractViolation);
}

TEST(DepGraph, Fig3CensusFor2x2) {
  // The paper's Fig. 3 renders Exy_dep of a 2x2 mesh: 24 vertices.
  const Mesh2D mesh(2, 2);
  const PortDepGraph dep = build_exy_dep(mesh);
  EXPECT_EQ(dep.graph.vertex_count(), 24u);
  // Count edges by the closed form: each in-port contributes
  // |next_outs|, each cardinal out-port exactly 1, Local OUT nothing.
  std::size_t expected_edges = 0;
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    if (p.dir == Direction::kIn) {
      expected_edges += next_outs_xy(mesh, p).size();
    } else if (p.name != PortName::kLocal) {
      expected_edges += 1;
    }
  }
  EXPECT_EQ(dep.graph.edge_count(), expected_edges);
  EXPECT_EQ(dep.graph.edge_count(), 32u);  // the census of the figure
  // And it is acyclic (the content of (C-3)).
  EXPECT_TRUE(is_acyclic(dep.graph));
}

TEST(DepGraph, LocalOutIsASink) {
  const Mesh2D mesh(3, 3);
  const PortDepGraph dep = build_exy_dep(mesh);
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    if (p.name == PortName::kLocal && p.dir == Direction::kOut) {
      EXPECT_EQ(dep.graph.out_degree(mesh.id(p)), 0u);
    }
  }
}

TEST(DepGraph, EveryVertexExceptSinksHasAnOutEdge) {
  const Mesh2D mesh(3, 3);
  const PortDepGraph dep = build_exy_dep(mesh);
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    const bool sink = p.name == PortName::kLocal && p.dir == Direction::kOut;
    if (!sink) {
      EXPECT_GT(dep.graph.out_degree(mesh.id(p)), 0u) << to_string(p);
    }
  }
}

class DepGraphSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DepGraphSweep, GenericConstructionEqualsClosedForm) {
  const auto [w, h] = GetParam();
  const Mesh2D mesh(w, h);
  const XYRouting xy(mesh);
  const PortDepGraph generic = build_dep_graph(xy);
  const PortDepGraph closed = build_exy_dep(mesh);
  EXPECT_EQ(generic.graph.edges(), closed.graph.edges())
      << "on " << w << "x" << h;
}

INSTANTIATE_TEST_SUITE_P(Meshes, DepGraphSweep,
                         ::testing::Values(std::pair{1, 2}, std::pair{2, 1},
                                           std::pair{2, 2}, std::pair{3, 2},
                                           std::pair{3, 3}, std::pair{4, 4},
                                           std::pair{5, 2}, std::pair{2, 5},
                                           std::pair{6, 6}));

TEST(DepGraph, DotRenderingContainsPaperNotation) {
  const Mesh2D mesh(2, 2);
  const PortDepGraph dep = build_exy_dep(mesh);
  const std::string dot = dep.to_dot("fig3");
  EXPECT_NE(dot.find("digraph \"fig3\""), std::string::npos);
  EXPECT_NE(dot.find("<0,0,L,IN>"), std::string::npos);
  EXPECT_NE(dot.find("<1,1,L,OUT>"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace genoc
