// End-to-end tests for the HERMES instance (GeNoC2D).
#include <gtest/gtest.h>

#include "core/hermes.hpp"
#include "core/theorems.hpp"
#include "util/require.hpp"

namespace genoc {
namespace {

TEST(Hermes, ConstructionAndAccessors) {
  const HermesInstance hermes(4, 3, 2);
  EXPECT_EQ(hermes.mesh().width(), 4);
  EXPECT_EQ(hermes.mesh().height(), 3);
  EXPECT_EQ(hermes.buffers_per_port(), 2u);
  EXPECT_EQ(hermes.routing().name(), "XY");
  EXPECT_EQ(hermes.switching().name(), "wormhole");
  EXPECT_EQ(hermes.injection().name(), "Iid");
  EXPECT_THROW(HermesInstance(2, 2, 0), ContractViolation);
}

TEST(Hermes, HeterogeneousLocalBuffers) {
  // Deeper injection/ejection queues: Local ports get their own depth.
  const HermesInstance hermes(3, 3, 1, /*local_buffers=*/4);
  EXPECT_EQ(hermes.local_buffers(), 4u);
  Config config = hermes.make_config(
      {{NodeCoord{0, 0}, NodeCoord{2, 2}}, {NodeCoord{0, 0}, NodeCoord{2, 0}}},
      4);
  const Mesh2D& mesh = hermes.mesh();
  EXPECT_EQ(config.state().capacity(mesh.id(mesh.local_in(0, 0))), 4u);
  EXPECT_EQ(config.state().capacity(
                mesh.id(Port{0, 0, PortName::kEast, Direction::kOut})),
            1u);
  const GenocRunResult run = hermes.run(config);
  EXPECT_TRUE(run.evacuated);
  EXPECT_EQ(run.measure_violations, 0u);
}

TEST(Hermes, DeeperLocalBuffersSpeedUpInjection) {
  // Same traffic, same switch buffers; deeper L-IN queues let waiting
  // worms stage closer to the network, so evacuation is no slower and the
  // last entry happens no later.
  std::vector<TrafficPair> pairs;
  for (int i = 0; i < 6; ++i) {
    pairs.push_back({NodeCoord{0, 0}, NodeCoord{2, 2}});
  }
  auto last_entry = [&](std::size_t local) {
    const HermesInstance hermes(3, 3, 1, local);
    Config config = hermes.make_config(pairs, 4);
    hermes.run(config);
    std::size_t last = 0;
    for (const Arrival& e : config.entered()) {
      last = std::max(last, e.step);
    }
    return last;
  };
  EXPECT_LE(last_entry(8), last_entry(1));
}

TEST(Hermes, MakeConfigAssignsSequentialIds) {
  const HermesInstance hermes(3, 3, 2);
  Config config = hermes.make_config(
      {{NodeCoord{0, 0}, NodeCoord{1, 1}}, {NodeCoord{2, 2}, NodeCoord{0, 0}}},
      3);
  ASSERT_EQ(config.travels().size(), 2u);
  EXPECT_EQ(config.travels()[0].id, 1u);
  EXPECT_EQ(config.travels()[1].id, 2u);
  EXPECT_EQ(config.travels()[0].flit_count, 3u);
}

TEST(Hermes, VerifyDeadlockFreeAcrossSizes) {
  for (const auto& [w, h] :
       {std::pair{2, 2}, std::pair{3, 3}, std::pair{5, 4}, std::pair{1, 7}}) {
    const HermesInstance hermes(w, h, 2);
    const TheoremReport report = hermes.verify_deadlock_free();
    EXPECT_TRUE(report.holds) << w << "x" << h << ": " << report.summary();
  }
}

TEST(Hermes, FullPipelineOnAllToOneTraffic) {
  // The congested pattern: everyone sends to the centre.
  const HermesInstance hermes(4, 4, 2);
  std::vector<TrafficPair> pairs;
  for (const NodeCoord n : hermes.mesh().nodes()) {
    if (!(n == NodeCoord{2, 2})) {
      pairs.push_back({n, NodeCoord{2, 2}});
    }
  }
  Config config = hermes.make_config(pairs, 4);
  const GenocRunResult run = hermes.run(config);
  EXPECT_TRUE(run.evacuated);
  EXPECT_EQ(run.measure_violations, 0u);
  EXPECT_TRUE(check_correctness(config, hermes.routing()).holds);
  EXPECT_TRUE(check_evacuation(config, run).holds);
}

TEST(Hermes, DependencyGraphIsTheClosedForm) {
  const HermesInstance hermes(3, 2, 1);
  // The paper's Exy_dep over the instance's mesh is the graph the generic
  // construction derives from the instance's routing function.
  const PortDepGraph dep = build_exy_dep(hermes.mesh());
  const PortDepGraph expected = build_dep_graph(hermes.routing());
  EXPECT_EQ(dep.graph.edges(), expected.graph.edges());
}

TEST(Hermes, ArrivalOrderRespectsCausality) {
  // A message to a nearby node arrives no later than an identical-length
  // competitor injected behind it at the same source.
  const HermesInstance hermes(4, 1, 1);
  Config config = hermes.make_config(
      {{NodeCoord{0, 0}, NodeCoord{3, 0}}, {NodeCoord{0, 0}, NodeCoord{3, 0}}},
      2);
  const GenocRunResult run = hermes.run(config);
  ASSERT_TRUE(run.evacuated);
  ASSERT_EQ(config.arrived().size(), 2u);
  // Travel 1 was registered first and shares the entire route: it must
  // complete strictly earlier.
  std::size_t step1 = 0;
  std::size_t step2 = 0;
  for (const Arrival& a : config.arrived()) {
    (a.id == 1 ? step1 : step2) = a.step;
  }
  EXPECT_LT(step1, step2);
}

}  // namespace
}  // namespace genoc
