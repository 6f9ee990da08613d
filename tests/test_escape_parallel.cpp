// Tests for the destination-sharded escape-lane analysis: the pooled sweep
// must be BIT-IDENTICAL to the sequential one — graph edges, counters,
// availability verdict and the missing-escape witness — at every thread
// count, across every escape-lane preset of the instance registry. Both
// must also equal the per-state oracle (escape_oracle.hpp) on every preset
// and on fault variants of the escape bases.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "campaign/fault_model.hpp"
#include "deadlock/escape.hpp"
#include "escape_oracle.hpp"
#include "escape_testing.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "obs/metrics.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/xy.hpp"
#include "util/thread_pool.hpp"

namespace genoc {
namespace {

TEST(EscapeParallel, BitIdenticalOnEveryEscapePreset) {
  // Every registry preset that names an escape lane, including the 64x64
  // torus the sharding targets. 1/4/8 threads all reduce to the same
  // merged analysis.
  std::size_t covered = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.escape.empty()) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    ++covered;
    const NetworkInstance instance(spec);
    ASSERT_NE(instance.escape(), nullptr);
    const EscapeAnalysis sequential =
        analyze_escape(instance.routing(), *instance.escape());
    // The torus presets take the analytic path; the sweep entry point must
    // reach the same analysis on them too, at every thread count.
    expect_identical(
        analyze_escape_sweep(instance.routing(), *instance.escape()),
        sequential);
    for (const std::size_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const EscapeAnalysis pooled =
          analyze_escape(instance.routing(), *instance.escape(), &pool);
      expect_identical(pooled, sequential);
      expect_identical(
          analyze_escape_sweep(instance.routing(), *instance.escape(), &pool),
          sequential);
    }
  }
  EXPECT_GE(covered, 4u) << "escape-lane presets disappeared from the registry";
}

TEST(EscapeParallel, MissingWitnessIsShardOrderInvariant) {
  const Mesh2D mesh(5, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const HolePuncturedXY escape(mesh);
  const EscapeAnalysis sequential = analyze_escape(adaptive, escape);
  ASSERT_FALSE(sequential.escape_always_available);
  ASSERT_GT(sequential.missing_states, 1u);
  ASSERT_FALSE(sequential.missing_escape.empty());
  for (const std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const EscapeAnalysis pooled = analyze_escape(adaptive, escape, &pool);
    expect_identical(pooled, sequential);
  }
}

TEST(EscapeParallel, SummaryIsBoundedWithManyMissingStates) {
  // The summary must report the first witness and a count — never one
  // entry per missing state.
  const Mesh2D mesh(5, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const HolePuncturedXY escape(mesh);
  const EscapeAnalysis analysis = analyze_escape(adaptive, escape);
  const std::string text = analysis.summary();
  EXPECT_NE(text.find("missing at"), std::string::npos) << text;
  EXPECT_NE(text.find("more"), std::string::npos) << text;
  EXPECT_LT(text.size(), 256u) << text;
  EXPECT_NE(text.find(analysis.missing_escape), std::string::npos);
}

TEST(EscapeParallel, PoolOfOneMatchesNullptr) {
  // thread_count() == 1 still goes through the sharded code path; it must
  // degrade to the sequential result exactly.
  const Mesh2D mesh(4, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting xy(mesh);
  ThreadPool pool(1);
  expect_identical(analyze_escape(adaptive, xy, &pool),
                   analyze_escape(adaptive, xy));
}

TEST(EscapeParallel, RepeatedPooledRunsAreStable) {
  const Mesh2D mesh(6, 6);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting xy(mesh);
  ThreadPool pool(4);
  const EscapeAnalysis first = analyze_escape(adaptive, xy, &pool);
  for (int i = 0; i < 3; ++i) {
    expect_identical(analyze_escape(adaptive, xy, &pool), first);
  }
}

/// analyze_escape at nullptr and at 1/4/8 threads, each against the
/// per-state oracle; returns the oracle's analysis.
EscapeAnalysis expect_matches_oracle(
    const RoutingFunction& adaptive, const RoutingFunction& escape,
    std::vector<std::unique_ptr<ThreadPool>>& pools) {
  EscapeAnalysis oracle = escape_oracle(adaptive, escape);
  expect_identical(analyze_escape(adaptive, escape), oracle);
  for (const std::unique_ptr<ThreadPool>& pool : pools) {
    SCOPED_TRACE(pool->thread_count());
    expect_identical(analyze_escape(adaptive, escape, pool.get()), oracle);
  }
  return oracle;
}

std::vector<std::unique_ptr<ThreadPool>> oracle_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  return pools;
}

InstanceSpec base_spec(const std::string& text) {
  std::string error;
  const std::optional<InstanceSpec> spec = parse_instance_spec(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(InstanceSpec{});
}

/// Every variant of \p base under \p plan_text against the oracle; returns
/// how many variants had a missing-escape witness.
std::size_t expect_variants_match_oracle(const InstanceSpec& base,
                                         const std::string& plan_text) {
  std::string error;
  const std::optional<FaultPlan> plan = parse_fault_plan(plan_text, &error);
  EXPECT_TRUE(plan.has_value()) << plan_text << ": " << error;
  auto pools = oracle_pools();
  std::size_t with_witness = 0;
  for (const InstanceSpec& variant : FaultModel(base).variants(*plan)) {
    SCOPED_TRACE(display_name(variant));
    const NetworkInstance instance(variant);
    if (!expect_matches_oracle(instance.routing(), *instance.escape(), pools)
             .missing_escape.empty()) {
      ++with_witness;
    }
  }
  return with_witness;
}

TEST(EscapeOracle, MatchesEveryEscapePreset) {
  auto pools = oracle_pools();
  std::size_t covered = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.escape.empty()) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    ++covered;
    const NetworkInstance instance(spec);
    expect_matches_oracle(instance.routing(), *instance.escape(), pools);
  }
  EXPECT_GE(covered, 4u);
}

TEST(EscapeOracle, MatchesEverySingleFaultOfTorus8) {
  const InstanceSpec* base = InstanceRegistry::global().find("torus8-xy");
  ASSERT_NE(base, nullptr);
  EXPECT_GT(expect_variants_match_oracle(*base, "single"), 0u);
}

TEST(EscapeOracle, MatchesEverySingleFaultOfHermesTorus) {
  const InstanceSpec* base = InstanceRegistry::global().find("hermes-torus");
  ASSERT_NE(base, nullptr);
  EXPECT_GT(expect_variants_match_oracle(*base, "single"), 0u);
}

TEST(EscapeOracle, MatchesEverySingleFaultOfMesh8Adaptive) {
  const InstanceSpec* base =
      InstanceRegistry::global().find("mesh8-adaptive");
  ASSERT_NE(base, nullptr);
  EXPECT_GT(expect_variants_match_oracle(*base, "single"), 0u);
}

TEST(EscapeOracle, MatchesEverySingleFaultOfTorus16) {
  EXPECT_GT(expect_variants_match_oracle(
                base_spec("topology=torus size=16x16 routing=torus_xy "
                          "escape=xy"),
                "single"),
            0u);
}

TEST(EscapeOracle, MatchesSeededRandomFaultSets) {
  // Six failed links per variant: witnesses deep inside the sweep order,
  // in several shards at once.
  std::size_t with_witness = 0;
  for (const char* base :
       {"topology=torus size=8x8 routing=torus_xy escape=xy",
        "topology=mesh size=8x8 routing=fully_adaptive escape=xy",
        "topology=torus size=12x6 routing=torus_xy escape=yx"}) {
    SCOPED_TRACE(base);
    for (int seed = 1; seed <= 5; ++seed) {
      with_witness += expect_variants_match_oracle(
          base_spec(base), "random:6," + std::to_string(seed));
    }
  }
  EXPECT_GT(with_witness, 0u);
}

TEST(EscapeOracle, MatchesThePuncturedLane) {
  const Mesh2D mesh(5, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const HolePuncturedXY escape(mesh);
  auto pools = oracle_pools();
  expect_matches_oracle(adaptive, escape, pools);
}

TEST(EscapeParallel, WorkCountersAreThreadCountInvariant) {
  // escape.entry_nodes / escape.lane_ports are shard sums: one run adds
  // the same amount at every pool size.
  const Mesh2D mesh(6, 5);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting xy(mesh);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  obs::Counter& entries = metrics.counter("escape.entry_nodes");
  obs::Counter& lane_ports = metrics.counter("escape.lane_ports");
  auto delta = [&](ThreadPool* pool) {
    const std::uint64_t entries_before = entries.value();
    const std::uint64_t lanes_before = lane_ports.value();
    analyze_escape(adaptive, xy, pool);
    return std::pair(entries.value() - entries_before,
                     lane_ports.value() - lanes_before);
  };
  const auto sequential = delta(nullptr);
  // Terminal IN ports are always reachable: every node enters the lane
  // toward every destination.
  EXPECT_EQ(sequential.first, mesh.node_count() * mesh.destination_count());
  EXPECT_GT(sequential.second, 0u);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    EXPECT_EQ(delta(&pool), sequential);
  }
}

}  // namespace
}  // namespace genoc
