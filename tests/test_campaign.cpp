// Fault-injection campaign suite: the FaultModel population (deterministic
// link enumeration, single/double/random plans), the canonical failed=
// spec machinery (with_failed_links, shared artifact keys, round-trips),
// and the campaign engine itself — outcome accounting, the batch-shared
// base context (store hit counters), screening on a shattered 2x2, and
// byte-identical reports at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/fault_model.hpp"
#include "cli/campaign_json.hpp"
#include "instance/registry.hpp"
#include "instance/spec.hpp"
#include "obs/metrics.hpp"
#include "topology/mesh.hpp"
#include "util/require.hpp"
#include "verify/artifacts.hpp"

namespace genoc {
namespace {

InstanceSpec spec_or_die(const std::string& text) {
  std::string error;
  const std::optional<InstanceSpec> spec = parse_instance_spec(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(InstanceSpec{});
}

/// Grids derived by base-wired contexts so far, process-wide.
std::uint64_t variant_grids() {
  return obs::MetricsRegistry::global()
      .counter("artifacts.variant_grids")
      .value();
}

FaultPlan plan_or_die(const std::string& text) {
  std::string error;
  const std::optional<FaultPlan> plan = parse_fault_plan(text, &error);
  EXPECT_TRUE(plan.has_value()) << text << ": " << error;
  return plan.value_or(FaultPlan{});
}

// ---------------------------------------------------------------------------
// Fault-plan grammar.
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesAndRoundTrips) {
  EXPECT_EQ(plan_or_die("single").kind, FaultPlan::Kind::kSingle);
  EXPECT_EQ(plan_or_die("double").kind, FaultPlan::Kind::kDouble);
  const FaultPlan random = plan_or_die("random:3,7");
  EXPECT_EQ(random.kind, FaultPlan::Kind::kRandom);
  EXPECT_EQ(random.count, 3u);
  EXPECT_EQ(random.seed, 7u);
  for (const char* text : {"single", "double", "random:3,7"}) {
    EXPECT_EQ(to_string(plan_or_die(text)), text);
  }
}

TEST(FaultPlan, RejectsMalformedPlans) {
  std::string error;
  for (const char* text :
       {"", "banana", "single,double", "random", "random:", "random:3",
        "random:3,", "random:,7", "random:0,7", "random:-1,7",
        "random:3,7,9", "random:3x,7"}) {
    EXPECT_FALSE(parse_fault_plan(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

// ---------------------------------------------------------------------------
// FaultModel enumeration.
// ---------------------------------------------------------------------------

TEST(FaultModel, EnumeratesCanonicalSortedLinks) {
  const FaultModel model(spec_or_die("topology=mesh size=4x4 routing=xy"));
  // A 4x4 mesh has 3*4 horizontal + 3*4 vertical bidirectional links; the
  // terminal (L) links are excluded by construction.
  ASSERT_EQ(model.links().size(), 24u);
  std::vector<LinkFault> faults;
  for (const std::string& token : model.links()) {
    std::string error;
    const std::optional<LinkFault> fault = parse_link_fault(token, &error);
    ASSERT_TRUE(fault.has_value()) << token << ": " << error;
    EXPECT_TRUE(link_fault_exists(*fault, 4, 4, false, false)) << token;
    EXPECT_EQ(canonical_link_fault(*fault, 4, 4, false, false), *fault)
        << token << " is not canonical";
    faults.push_back(*fault);
  }
  // Sorted by (node, name) — the LinkFault order, not token strings.
  EXPECT_TRUE(std::is_sorted(faults.begin(), faults.end()));
  EXPECT_EQ(std::adjacent_find(faults.begin(), faults.end()), faults.end());
}

TEST(FaultModel, TorusWrapLinksAreEnumerated) {
  const FaultModel model(
      spec_or_die("topology=torus size=4x4 routing=torus_xy escape=xy"));
  // Every node has an E and an N link once the wraps close the rings.
  EXPECT_EQ(model.links().size(), 32u);
}

TEST(FaultModel, PlanPopulations) {
  const FaultModel model(spec_or_die("topology=mesh size=4x4 routing=xy"));
  const FaultPlan single = plan_or_die("single");
  const FaultPlan pairs = plan_or_die("double");
  EXPECT_EQ(model.variant_count(single), 24u);
  EXPECT_EQ(model.variant_count(pairs), 24u * 23u / 2u);
  EXPECT_EQ(model.variants(single).size(), model.variant_count(single));
  EXPECT_EQ(model.variants(pairs).size(), model.variant_count(pairs));
  for (const InstanceSpec& vspec : model.variants(single)) {
    EXPECT_EQ(vspec.failed_links.size(), 1u);
    EXPECT_TRUE(vspec.name.empty());  // display names show the fault set
  }
  std::set<std::vector<std::string>> seen;
  for (const InstanceSpec& vspec : model.variants(pairs)) {
    ASSERT_EQ(vspec.failed_links.size(), 2u);
    // Each pair is two DISTINCT links in canonical (node, name) order.
    const auto a = parse_link_fault(vspec.failed_links[0], nullptr);
    const auto b = parse_link_fault(vspec.failed_links[1], nullptr);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_LT(*a, *b);
    EXPECT_TRUE(seen.insert(vspec.failed_links).second) << "duplicate pair";
  }
}

TEST(FaultModel, RandomPlanIsSeedDeterministic) {
  const FaultModel model(spec_or_die("topology=mesh size=4x4 routing=xy"));
  const FaultPlan plan = plan_or_die("random:5,42");
  const auto a = model.variants(plan);
  const auto b = model.variants(plan);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.front().failed_links, b.front().failed_links);
  EXPECT_EQ(a.front().failed_links.size(), 5u);
  const std::set<std::string> distinct(a.front().failed_links.begin(),
                                       a.front().failed_links.end());
  EXPECT_EQ(distinct.size(), 5u) << "random plan drew a duplicate link";
  // Drawing more links than the base has is a contract violation (the CLI
  // pre-checks and exits 2).
  EXPECT_THROW(model.variants(plan_or_die("random:25,42")),
               ContractViolation);
}

TEST(FaultModel, RejectsNonGridAndPreFaultedBases) {
  EXPECT_THROW(FaultModel(*InstanceRegistry::global().find("dragonfly9-min")),
               ContractViolation);
  EXPECT_THROW(
      FaultModel(spec_or_die("topology=mesh size=4x4 routing=xy failed=0:E")),
      ContractViolation);
}

// ---------------------------------------------------------------------------
// Canonical failed= specs share one artifact key.
// ---------------------------------------------------------------------------

TEST(FaultSpec, EqualFaultSetsShareOneArtifactKey) {
  const InstanceSpec base = spec_or_die("topology=mesh size=4x4 routing=xy");
  // "1:W" names the same physical link as "0:E" from the other endpoint;
  // with_failed_links re-anchors both to the canonical "0:E".
  const InstanceSpec a = base.with_failed_links({"0:E"});
  const InstanceSpec b = base.with_failed_links({"1:W"});
  EXPECT_EQ(a.failed_links, b.failed_links);
  EXPECT_EQ(AnalysisArtifacts::key(a), AnalysisArtifacts::key(b));
  EXPECT_NE(AnalysisArtifacts::key(a), AnalysisArtifacts::key(base));
  // Order never matters either: the canonical list is sorted.
  const InstanceSpec c = base.with_failed_links({"2:S", "0:E"});
  const InstanceSpec d = base.with_failed_links({"0:E", "2:S"});
  EXPECT_EQ(AnalysisArtifacts::key(c), AnalysisArtifacts::key(d));
}

TEST(FaultSpec, VariantSpecStringsRoundTrip) {
  const FaultModel model(spec_or_die("topology=mesh size=4x4 routing=xy"));
  for (const InstanceSpec& vspec :
       model.variants(plan_or_die("random:3,7"))) {
    const InstanceSpec reparsed = spec_or_die(to_spec_string(vspec));
    EXPECT_EQ(reparsed, vspec);
  }
}

TEST(FaultSpec, FailedLinkRemovesAllFourChannelPorts) {
  const Mesh2D whole(4, 4);
  const Mesh2D faulted(4, 4, false, false, {LinkFault{0, PortName::kEast}});
  EXPECT_EQ(faulted.port_count() + 4, whole.port_count());
  EXPECT_TRUE(faulted.has_faults());
  // The four ports of the 0<->1 link are gone; everything else survives.
  EXPECT_FALSE(faulted.exists(Port{0, 0, PortName::kEast, Direction::kOut}));
  EXPECT_FALSE(faulted.exists(Port{0, 0, PortName::kEast, Direction::kIn}));
  EXPECT_FALSE(faulted.exists(Port{1, 0, PortName::kWest, Direction::kOut}));
  EXPECT_FALSE(faulted.exists(Port{1, 0, PortName::kWest, Direction::kIn}));
  EXPECT_TRUE(faulted.exists(Port{1, 0, PortName::kEast, Direction::kOut}));
}

// ---------------------------------------------------------------------------
// The campaign engine.
// ---------------------------------------------------------------------------

TEST(Campaign, SingleFaultMeshIsFullyVerifiedOffOneBaseContext) {
  CampaignOptions options;
  options.plan = plan_or_die("single");
  options.threads = 2;
  const std::uint64_t grids_before = variant_grids();
  const CampaignReport report =
      run_campaign(spec_or_die("topology=mesh size=6x6 routing=xy"), options);
  // Variants of an acyclic base build no grid: the screen reads the base
  // grid and the verdict, edge count and header come from the base.
  EXPECT_EQ(variant_grids(), grids_before);
  EXPECT_EQ(report.links, 60u);
  EXPECT_EQ(report.variants_total, 60u);
  EXPECT_TRUE(report.all_accounted());
  EXPECT_EQ(report.screened, 0u);
  EXPECT_EQ(report.verified, 60u);
  EXPECT_EQ(report.deadlock_free, 60u);
  EXPECT_EQ(report.deadlocked, 0u);
  EXPECT_FALSE(report.any_deadlock());
  // The batch-sharing guarantee: the base dependency graph and its
  // acyclicity verdict are computed exactly once. Every variant inherits
  // the verdict (one base acyclicity hit each) and counts its edges from
  // the base graph's degrees (one base dep_graph hit each); none builds a
  // graph of its own.
  EXPECT_EQ(report.cache.dep_graph.misses, 1u);
  EXPECT_EQ(report.cache.dep_graph.hits, 60u);
  EXPECT_EQ(report.cache.acyclicity.misses, 1u);
  EXPECT_EQ(report.cache.acyclicity.hits, report.variants_total);
  EXPECT_EQ(report.cache.contexts.misses, 1u);
  for (const VariantOutcome& out : report.variants) {
    EXPECT_FALSE(out.screened);
    EXPECT_TRUE(out.screen_codes.empty());
    EXPECT_TRUE(out.deadlock_free) << "failed=" << out.faults;
    EXPECT_GT(out.edges, 0u);
  }
}

TEST(Campaign, CyclicBaseVariantsDeriveOneGridPerVerify) {
  CampaignOptions options;
  options.plan = plan_or_die("single");
  options.threads = 4;
  const std::uint64_t grids_before = variant_grids();
  const CampaignReport report = run_campaign(
      spec_or_die("topology=torus size=4x4 routing=torus_xy escape=xy"),
      options);
  EXPECT_GT(report.verified, 0u);
  // A cyclic base's variants delta-build their graph over their own grid;
  // the screen alone derives none.
  EXPECT_EQ(variant_grids() - grids_before, report.verified);
}

TEST(Campaign, DoubleFaultsOnA3x3ScreenTheShatteredVariants) {
  CampaignOptions options;
  options.plan = plan_or_die("double");
  const CampaignReport report =
      run_campaign(spec_or_die("topology=mesh size=3x3 routing=xy"), options);
  EXPECT_EQ(report.links, 12u);
  EXPECT_EQ(report.variants_total, 66u);
  EXPECT_TRUE(report.all_accounted());
  // Pairs that strip both links of a corner node isolate it: those
  // variants are screened on net-disconnected without spending a verify;
  // the rest stay connected and verify.
  EXPECT_GT(report.screened, 0u);
  EXPECT_GT(report.verified, 0u);
  EXPECT_EQ(report.deadlocked, 0u);
  bool disconnected_counted = false;
  for (const auto& [code, count] : report.screen_code_counts) {
    if (code == "net-disconnected") {
      disconnected_counted = count > 0;
    }
  }
  EXPECT_TRUE(disconnected_counted);
  for (const VariantOutcome& out : report.variants) {
    if (out.screened) {
      EXPECT_FALSE(out.screen_codes.empty()) << "failed=" << out.faults;
      EXPECT_FALSE(out.deadlock_free);
    } else {
      EXPECT_TRUE(out.screen_codes.empty()) << "failed=" << out.faults;
    }
  }
}

TEST(Campaign, ReportIsByteIdenticalAtAnyThreadCount) {
  const InstanceSpec base = spec_or_die("topology=mesh size=6x6 routing=xy");
  CampaignOptions options;
  options.plan = plan_or_die("single");
  std::vector<std::string> rendered;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    options.threads = threads;
    const CampaignReport report = run_campaign(base, options);
    // include_timing=false drops threads/wall_ms — the determinism contract
    // covers everything else, byte for byte.
    rendered.push_back(cli::campaign_report_json(report, std::nullopt));
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  EXPECT_EQ(rendered[0], rendered[2]);
}

TEST(Campaign, RandomPlanReportsItsCanonicalPlanString) {
  CampaignOptions options;
  options.plan = plan_or_die("random:2,9");
  const CampaignReport report =
      run_campaign(spec_or_die("topology=mesh size=4x4 routing=xy"), options);
  EXPECT_EQ(report.plan, "random:2,9");
  EXPECT_EQ(report.variants_total, 1u);
  EXPECT_TRUE(report.all_accounted());
  ASSERT_EQ(report.variants.size(), 1u);
  // The faults token is the canonical comma-joined failed= value: two
  // sorted tokens, no whitespace.
  const std::string& faults = report.variants.front().faults;
  EXPECT_EQ(std::count(faults.begin(), faults.end(), ','), 1);
  EXPECT_EQ(faults.find(' '), std::string::npos);
}

}  // namespace
}  // namespace genoc
