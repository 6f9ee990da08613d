// Tests for the flows argument (paper Sec. VI.A, Fig. 4): classification,
// the closed-form rank certificate, and flow decomposition.
#include <gtest/gtest.h>

#include "deadlock/flows.hpp"
#include "graph/cycle.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/xy.hpp"

namespace genoc {
namespace {

TEST(Flows, ClassificationMatchesPaperFig4) {
  // "The Northern-flow consists solely of South-In and North-Out ports."
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kSouth, Direction::kIn}),
            FlowClass::kNorthern);
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kNorth, Direction::kOut}),
            FlowClass::kNorthern);
  // Westbound traffic: West-Out and East-In ports.
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kWest, Direction::kOut}),
            FlowClass::kWestern);
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kEast, Direction::kIn}),
            FlowClass::kWestern);
  // Eastbound: West-In and East-Out.
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kWest, Direction::kIn}),
            FlowClass::kEastern);
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kEast, Direction::kOut}),
            FlowClass::kEastern);
  // Southbound: North-In and South-Out.
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kNorth, Direction::kIn}),
            FlowClass::kSouthern);
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kSouth, Direction::kOut}),
            FlowClass::kSouthern);
  // Local ports are pure source/sink.
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kLocal, Direction::kIn}),
            FlowClass::kLocalSource);
  EXPECT_EQ(classify_flow(Port{1, 1, PortName::kLocal, Direction::kOut}),
            FlowClass::kLocalSink);
}

class FlowSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(FlowSweep, RankCertificateDischargesC3OnEveryMesh) {
  // The executable shadow of the arbitrary-size ACL2 proof: the SAME
  // closed-form rank works for every W x H.
  const auto [w, h] = GetParam();
  const Mesh2D mesh(w, h);
  const PortDepGraph dep = build_exy_dep(mesh);
  EXPECT_TRUE(verify_flow_certificate(dep)) << w << "x" << h;
}

TEST_P(FlowSweep, RankStrictlyIncreasesAlongEveryEdge) {
  const auto [w, h] = GetParam();
  const Mesh2D mesh(w, h);
  const PortDepGraph dep = build_exy_dep(mesh);
  for (const auto& [from, to] : dep.graph.edges()) {
    EXPECT_LT(xy_flow_rank(mesh, dep.port_of(from)),
              xy_flow_rank(mesh, dep.port_of(to)))
        << dep.label(from) << " -> " << dep.label(to);
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, FlowSweep,
                         ::testing::Values(std::pair{1, 2}, std::pair{2, 1},
                                           std::pair{2, 2}, std::pair{3, 3},
                                           std::pair{4, 2}, std::pair{2, 4},
                                           std::pair{6, 6}, std::pair{9, 4},
                                           std::pair{12, 12}));

TEST(Flows, RankBoundsAndExtremes) {
  const Mesh2D mesh(4, 3);
  // Local IN is the global minimum, Local OUT the global maximum.
  const std::int64_t source = xy_flow_rank(mesh, mesh.local_in(2, 1));
  const std::int64_t sink = xy_flow_rank(mesh, mesh.local_out(2, 1));
  EXPECT_EQ(source, 0);
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    EXPECT_GE(xy_flow_rank(mesh, p), source);
    EXPECT_LE(xy_flow_rank(mesh, p), sink);
  }
}

TEST(Flows, DecompositionOfXyGraphHasNoViolations) {
  const Mesh2D mesh(4, 4);
  const PortDepGraph dep = build_exy_dep(mesh);
  const FlowDecomposition decomposition = decompose_flows(dep);
  EXPECT_EQ(decomposition.violating_edges, 0u);
  EXPECT_GT(decomposition.intra_flow_edges, 0u);
  EXPECT_GT(decomposition.horizontal_to_vertical, 0u);
  EXPECT_GT(decomposition.into_local_sink, 0u);
  EXPECT_GT(decomposition.out_of_local_source, 0u);
  // Every edge is classified exactly once.
  EXPECT_EQ(decomposition.intra_flow_edges +
                decomposition.horizontal_to_vertical +
                decomposition.into_local_sink +
                decomposition.out_of_local_source +
                decomposition.violating_edges,
            dep.graph.edge_count());
  // Port census: one Local source and sink per node; flows share the rest.
  EXPECT_EQ(decomposition.ports_per_flow[static_cast<int>(
                FlowClass::kLocalSource)],
            mesh.node_count());
  EXPECT_EQ(
      decomposition.ports_per_flow[static_cast<int>(FlowClass::kLocalSink)],
      mesh.node_count());
  EXPECT_FALSE(decomposition.summary().empty());
}

TEST(Flows, FullyAdaptiveGraphViolatesTheFlowDiscipline) {
  const Mesh2D mesh(3, 3);
  const FullyAdaptiveRouting adaptive(mesh);
  const PortDepGraph dep = build_dep_graph(adaptive);
  // Vertical-to-horizontal turns break the flow discipline...
  EXPECT_GT(decompose_flows(dep).violating_edges, 0u);
  // ...and the rank certificate necessarily fails (the graph is cyclic).
  EXPECT_FALSE(verify_flow_certificate(dep));
  EXPECT_FALSE(is_acyclic(dep.graph));
}

TEST(Flows, FlowClassNamesAreDistinct) {
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) {
      EXPECT_STRNE(flow_class_name(static_cast<FlowClass>(a)),
                   flow_class_name(static_cast<FlowClass>(b)));
    }
  }
}

}  // namespace
}  // namespace genoc
