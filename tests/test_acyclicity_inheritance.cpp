// Inherited (C-3) verdicts: a delta-wired fault variant of an acyclic base
// answers acyclicity() and edge_count() from the base — no variant graph,
// no DFS. These tests are its oracle. On every single-fault variant and a
// run of seeded random:3 variants of each node-uniform acyclic grid preset,
// the inherited verdict and edge count must equal both a delta build plus
// find_cycle and a from-scratch context built without a base. Cyclic
// bases and the generic oracle path must not inherit, the base's rank
// certificate must reject a corrupted rank, and campaigns must inherit
// identically at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fault_model.hpp"
#include "cli/campaign_json.hpp"
#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"
#include "graph/toposort.hpp"
#include "instance/registry.hpp"
#include "instance/spec.hpp"
#include "obs/metrics.hpp"
#include "util/require.hpp"
#include "verify/artifacts.hpp"

namespace genoc {
namespace {

obs::Counter& inherited_counter() {
  return obs::MetricsRegistry::global().counter(
      "artifacts.acyclicity.inherited");
}

obs::Counter& delta_counter() {
  return obs::MetricsRegistry::global().counter(
      "artifacts.dep_graph.delta_builds");
}

const InstanceSpec& preset(const std::string& name) {
  const InstanceSpec* spec = InstanceRegistry::global().find(name);
  GENOC_REQUIRE(spec != nullptr, "missing preset " + name);
  return *spec;
}

/// The base-graph ids of the ports \p variant lacks, derived from the two
/// topologies alone (independently of the variant constructor's list).
std::vector<PortId> removed_ports(const AnalysisArtifacts& base,
                                  const AnalysisArtifacts& variant) {
  const auto& base_mesh = dynamic_cast<const Mesh2D&>(base.topology());
  const auto& variant_mesh = dynamic_cast<const Mesh2D&>(variant.topology());
  std::vector<PortId> removed;
  for (PortId pid = 0; pid < base_mesh.port_count(); ++pid) {
    if (!variant_mesh.exists(base_mesh.port(pid))) {
      removed.push_back(pid);
    }
  }
  return removed;
}

/// The unfaulted, node-uniform, acyclic grid presets small enough to sweep:
/// hermes, mesh8-xy/yx and the three turn models, mesh16-xy.
std::vector<InstanceSpec> acyclic_grid_presets() {
  std::vector<InstanceSpec> result;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (!spec.is_grid() || !spec.failed_links.empty() ||
        spec.node_count() > 16 * 16) {
      continue;
    }
    AnalysisArtifacts context(spec);
    if (context.routing().node_uniform() &&
        context.acyclicity(false, nullptr).acyclic) {
      result.push_back(spec);
    }
  }
  return result;
}

/// Variants of \p base: every single fault plus \p random_draws seeded
/// random:3 draws.
std::vector<InstanceSpec> variants_of(const InstanceSpec& base,
                                      std::uint64_t random_draws) {
  const FaultModel model(base);
  std::vector<InstanceSpec> variants = model.variants(FaultPlan{});
  for (std::uint64_t seed = 1; seed <= random_draws; ++seed) {
    const std::vector<InstanceSpec> drawn = model.variants(
        FaultPlan{FaultPlan::Kind::kRandom, 3, seed});
    variants.insert(variants.end(), drawn.begin(), drawn.end());
  }
  return variants;
}

/// Checks one inheriting variant against both oracles.
void expect_inherited_matches(const std::shared_ptr<AnalysisArtifacts>& base,
                              const InstanceSpec& vspec,
                              const std::string& context) {
  AnalysisArtifacts variant(vspec, base);
  const std::uint64_t inherited_before = inherited_counter().value();
  const AcyclicityArtifact& verdict = variant.acyclicity(false, nullptr);
  const std::size_t edges = variant.edge_count(false, nullptr);
  EXPECT_EQ(inherited_counter().value() - inherited_before, 1u) << context;
  EXPECT_TRUE(verdict.acyclic) << context;
  EXPECT_FALSE(verdict.cycle.has_value()) << context;
  // No variant graph was built or read to get there.
  EXPECT_EQ(variant.stats().dep_graph, (ArtifactCounter{0, 0})) << context;
  EXPECT_EQ(variant.stats().acyclicity, (ArtifactCounter{1, 0})) << context;

  // Oracle 1: the delta build of the same base graph, then the DFS.
  const PortDepGraph delta =
      build_dep_graph_delta(base->dep_graph(false, nullptr), variant.routing(),
                            removed_ports(*base, variant));
  EXPECT_FALSE(find_cycle(delta.graph).has_value()) << context;
  EXPECT_EQ(edges, delta.graph.edge_count()) << context;

  // Oracle 2: a from-scratch context that has no base at all.
  AnalysisArtifacts scratch(vspec);
  EXPECT_EQ(scratch.acyclicity(false, nullptr).acyclic, verdict.acyclic)
      << context;
  EXPECT_EQ(scratch.edge_count(false, nullptr), edges) << context;
  EXPECT_EQ(scratch.dep_graph(false, nullptr).graph.edge_count(), edges)
      << context;

  // The variant still builds its graph on demand (export-dot, constraints),
  // and that graph agrees with the count it reported without one.
  EXPECT_EQ(variant.dep_graph(false, nullptr).graph.edge_count(), edges)
      << context;
  EXPECT_EQ(variant.edge_count(false, nullptr), edges) << context;
}

TEST(AcyclicityInheritance, EveryAcyclicGridPresetMatchesBothOracles) {
  const std::vector<InstanceSpec> presets = acyclic_grid_presets();
  std::vector<std::string> names;
  for (const InstanceSpec& spec : presets) {
    names.push_back(spec.name);
  }
  for (const char* name : {"hermes", "mesh8-xy", "mesh8-yx", "mesh8-westfirst",
                           "mesh8-northlast", "mesh8-negfirst", "mesh16-xy"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name << " is missing from the sweep";
  }
  for (const InstanceSpec& spec : presets) {
    auto base = std::make_shared<AnalysisArtifacts>(spec);
    ASSERT_TRUE(base->certified_acyclic(nullptr)) << spec.name;
    std::size_t checked = 0;
    for (const InstanceSpec& vspec : variants_of(spec, 16)) {
      expect_inherited_matches(
          base, vspec,
          spec.name + " failed=" + join_failed_links(vspec.failed_links));
      ++checked;
    }
    EXPECT_EQ(checked, FaultModel(spec).links().size() + 16) << spec.name;
  }
}

TEST(AcyclicityInheritance, EveryFaultPairMatchesIncludingSharedEdges) {
  // Two failed links at one node delete edges whose two ends were both
  // removed (an in-port of one link feeding the out-port of the other):
  // the edge count's inclusion-exclusion term. Every pair on the 4x4 mesh.
  const InstanceSpec& spec = preset("hermes");
  auto base = std::make_shared<AnalysisArtifacts>(spec);
  ASSERT_TRUE(base->certified_acyclic(nullptr));
  FaultPlan pairs;
  pairs.kind = FaultPlan::Kind::kDouble;
  const std::vector<InstanceSpec> variants = FaultModel(spec).variants(pairs);
  EXPECT_EQ(variants.size(), 276u);  // 24 links, 24 * 23 / 2 pairs
  for (const InstanceSpec& vspec : variants) {
    expect_inherited_matches(
        base, vspec, "hermes failed=" + join_failed_links(vspec.failed_links));
  }
}

TEST(AcyclicityInheritance, CyclicBasesBuildTheDeltaAndKeepTheirWitness) {
  for (const char* name : {"torus8-xy", "mesh8-adaptive"}) {
    const InstanceSpec& spec = preset(name);
    auto base = std::make_shared<AnalysisArtifacts>(spec);
    EXPECT_FALSE(base->certified_acyclic(nullptr)) << name;
    const std::uint64_t inherited_before = inherited_counter().value();
    const std::uint64_t delta_before = delta_counter().value();
    std::size_t variants = 0;
    for (const InstanceSpec& vspec : variants_of(spec, 4)) {
      const std::string context =
          std::string(name) + " failed=" + join_failed_links(vspec.failed_links);
      AnalysisArtifacts variant(vspec, base);
      const AcyclicityArtifact& verdict = variant.acyclicity(false, nullptr);
      EXPECT_EQ(variant.stats().dep_graph.misses, 1u) << context;
      const PortDepGraph delta = build_dep_graph_delta(
          base->dep_graph(false, nullptr), variant.routing(),
          removed_ports(*base, variant));
      EXPECT_EQ(verdict.cycle, find_cycle(delta.graph)) << context;
      AnalysisArtifacts scratch(vspec);
      const AcyclicityArtifact& want = scratch.acyclicity(false, nullptr);
      EXPECT_EQ(verdict.acyclic, want.acyclic) << context;
      EXPECT_EQ(verdict.cycle, want.cycle) << context;
      EXPECT_EQ(variant.edge_count(false, nullptr),
                scratch.edge_count(false, nullptr))
          << context;
      ++variants;
    }
    EXPECT_EQ(inherited_counter().value(), inherited_before) << name;
    EXPECT_EQ(delta_counter().value() - delta_before, variants) << name;
  }
}

TEST(AcyclicityInheritance, GenericOraclePathNeverInherits) {
  const InstanceSpec& spec = preset("mesh8-xy");
  auto base = std::make_shared<AnalysisArtifacts>(spec);
  ASSERT_TRUE(base->certified_acyclic(nullptr));
  const InstanceSpec vspec = spec.with_failed_links({"9:E", "20:S"});
  AnalysisArtifacts variant(vspec, base);
  const std::uint64_t inherited_before = inherited_counter().value();
  EXPECT_TRUE(variant.acyclicity(true, nullptr).acyclic);
  const std::size_t edges = variant.edge_count(true, nullptr);
  EXPECT_EQ(inherited_counter().value(), inherited_before);
  // The generic build ran and is what the edge count read.
  EXPECT_EQ(variant.stats().dep_graph, (ArtifactCounter{1, 1}));
  AnalysisArtifacts scratch(vspec);
  EXPECT_EQ(edges, scratch.edge_count(false, nullptr));
}

TEST(AcyclicityInheritance, BaseDecidedFirstIsCertifiedByASecondDfs) {
  // verify --all may decide a base before a faulted sibling inherits from
  // it; certification then re-runs the DFS for the rank, once.
  const InstanceSpec& spec = preset("mesh8-xy");
  auto base = std::make_shared<AnalysisArtifacts>(spec);
  ASSERT_TRUE(base->acyclicity(false, nullptr).acyclic);
  EXPECT_TRUE(base->certified_acyclic(nullptr));
  EXPECT_TRUE(base->certified_acyclic(nullptr));
  EXPECT_EQ(base->stats().acyclicity, (ArtifactCounter{1, 2}));
  EXPECT_EQ(base->stats().dep_graph, (ArtifactCounter{1, 0}));
  expect_inherited_matches(base, spec.with_failed_links({"0:E"}), "0:E");
}

TEST(AcyclicityInheritance, FaultVariantCannotCertify) {
  const InstanceSpec& spec = preset("mesh8-xy");
  auto base = std::make_shared<AnalysisArtifacts>(spec);
  AnalysisArtifacts variant(spec.with_failed_links({"0:E"}), base);
  EXPECT_THROW(variant.certified_acyclic(nullptr), ContractViolation);
}

TEST(AcyclicityInheritance, DfsRankIsACertificateAndACorruptedOneIsRejected) {
  AnalysisArtifacts context(preset("mesh8-xy"));
  const Digraph& graph = context.dep_graph(false, nullptr).graph;
  std::vector<std::int64_t> rank;
  ASSERT_FALSE(find_cycle(graph, &rank).has_value());
  ASSERT_EQ(rank.size(), graph.vertex_count());
  EXPECT_TRUE(verify_rank_certificate(graph, rank));
  EXPECT_NO_THROW(require_rank_certificate(graph, rank));
  // The rank is a permutation of 0..V-1 (reverse finish order).
  std::vector<std::int64_t> sorted = rank;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], static_cast<std::int64_t>(i));
  }
  // Swap the two ranks along one edge: that edge now runs downhill.
  std::size_t from = 0;
  while (graph.out(from).empty()) {
    ++from;
  }
  const std::size_t to = graph.out(from).front();
  std::swap(rank[from], rank[to]);
  EXPECT_FALSE(verify_rank_certificate(graph, rank));
  EXPECT_THROW(require_rank_certificate(graph, rank), ContractViolation);
}

TEST(AcyclicityInheritance, CampaignInheritsIdenticallyAtAnyThreadCount) {
  const InstanceSpec& spec = preset("mesh8-xy");
  CampaignOptions options;
  std::vector<std::string> rendered;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    options.threads = threads;
    const std::uint64_t before = inherited_counter().value();
    const CampaignReport report = run_campaign(spec, options);
    EXPECT_EQ(report.verified, 112u) << threads;
    EXPECT_EQ(report.deadlock_free, report.verified) << threads;
    // One inherited verdict per verified variant, at every thread count.
    EXPECT_EQ(inherited_counter().value() - before, report.verified)
        << threads;
    EXPECT_EQ(report.cache.acyclicity, (ArtifactCounter{1, report.verified}))
        << threads;
    EXPECT_EQ(report.cache.dep_graph, (ArtifactCounter{1, report.verified}))
        << threads;
    rendered.push_back(cli::campaign_report_json(report, std::nullopt));
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
}

TEST(AcyclicityInheritance, CyclicBaseCampaignInheritsNothing) {
  CampaignOptions options;
  options.threads = 4;
  const std::uint64_t before = inherited_counter().value();
  const CampaignReport report = run_campaign(preset("torus8-xy"), options);
  EXPECT_EQ(inherited_counter().value(), before);
  EXPECT_GT(report.verified, 0u);
  // Every verified variant delta-built from the one base graph.
  EXPECT_EQ(report.cache.dep_graph, (ArtifactCounter{1, report.verified}));
}

}  // namespace
}  // namespace genoc
