// VerifyPipeline tests: the api_redesign acceptance bars.
//
//  1. BIT-IDENTITY — the pipeline's verdicts equal a verbatim reimplementation
//     of the pre-pipeline NetworkInstance::verify (the "legacy oracle" below)
//     on every registry preset, sequentially and on 4/8-thread pools, with
//     and without a shared artifact store.
//  2. ARTIFACT-CACHE ACCOUNTING — `verify --all` style sweeps build each
//     distinct topology x routing x escape context and graph exactly once;
//     duplicate prefixes are cache hits, counted and asserted.
//  3. The stage registry: names, unknown-stage rejection, subset pipelines
//     (skip reasons, the "undecided" verdict) and typed Diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "deadlock/constraints.hpp"
#include "deadlock/escape.hpp"
#include "graph/cycle.hpp"
#include "graph/tarjan.hpp"
#include "instance/batch_runner.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace genoc {
namespace {

/// The pre-pipeline NetworkInstance::verify, reproduced verbatim from the
/// last monolithic revision. This is the oracle the redesign must match
/// bit-for-bit (modulo cpu_ms): if a pipeline stage ever drifts — a changed
/// note string, a different check count, a witness from another cycle — the
/// comparison below catches it.
InstanceVerdict legacy_verify(const NetworkInstance& instance,
                              const InstanceVerifyOptions& options) {
  InstanceVerdict verdict;
  verdict.instance = instance.name();
  verdict.spec = to_spec_string(instance.spec());
  verdict.topology = instance.spec().topology;
  verdict.routing = instance.routing().name();
  verdict.switching = instance.switching().name();
  verdict.nodes = instance.topology().node_count();
  verdict.ports = instance.topology().port_count();
  verdict.deterministic = instance.routing().is_deterministic();
  verdict.expected_deadlock_free = instance.spec().expect_deadlock_free;

  const PortDepGraph dep =
      options.generic_builder
          ? build_dep_graph(instance.routing())
          : build_dep_graph_fast(instance.routing(), options.runner);
  verdict.edges = dep.graph.edge_count();
  verdict.checks =
      static_cast<std::uint64_t>(instance.topology().port_count()) *
          instance.topology().destination_count() +
      verdict.edges;

  // Acyclicity by sequential Tarjan, sharing no code with the pipeline's
  // DFS; the DFS only supplies the witness the note string names.
  std::optional<CycleWitness> cycle;
  if (has_nontrivial_scc(dep.graph)) {
    cycle = find_cycle(dep.graph);
  }
  verdict.dep_acyclic = !cycle.has_value();
  if (verdict.dep_acyclic) {
    verdict.deadlock_free = true;
    verdict.method = "Theorem 1 (C-3)";
    verdict.note = "dependency graph acyclic";
  } else if (instance.escape() != nullptr) {
    const EscapeAnalysis analysis = analyze_escape(
        instance.routing(), *instance.escape(), options.runner);
    verdict.deadlock_free = analysis.deadlock_free;
    verdict.method = "escape(" + instance.spec().escape + ")";
    verdict.note = analysis.summary();
    verdict.checks += analysis.states_checked;
  } else {
    verdict.deadlock_free = false;
    verdict.method = "cycle";
    verdict.note = "dependency cycle of length " +
                   std::to_string(cycle->size()) + " through " +
                   dep.label(cycle->front()) +
                   " and no escape lane (Theorem 1: deadlock reachable)";
  }

  if (options.check_constraints) {
    const ConstraintReport c1 = check_c1(instance.routing(), dep);
    const ConstraintReport c2 = check_c2(instance.routing(), dep);
    verdict.constraints_ok = c1.satisfied && c2.satisfied;
    verdict.checks += c1.checks + c2.checks;
    if (!verdict.constraints_ok) {
      verdict.deadlock_free = false;
      verdict.note += "; constraint violation: " +
                      (c1.satisfied ? c2.summary() : c1.summary());
    }
  }
  return verdict;
}

void expect_verdicts_equal(const InstanceVerdict& got,
                           const InstanceVerdict& want,
                           const std::string& context) {
  EXPECT_EQ(got.instance, want.instance) << context;
  EXPECT_EQ(got.spec, want.spec) << context;
  EXPECT_EQ(got.topology, want.topology) << context;
  EXPECT_EQ(got.routing, want.routing) << context;
  EXPECT_EQ(got.switching, want.switching) << context;
  EXPECT_EQ(got.nodes, want.nodes) << context;
  EXPECT_EQ(got.ports, want.ports) << context;
  EXPECT_EQ(got.edges, want.edges) << context;
  EXPECT_EQ(got.deterministic, want.deterministic) << context;
  EXPECT_EQ(got.dep_acyclic, want.dep_acyclic) << context;
  EXPECT_EQ(got.deadlock_free, want.deadlock_free) << context;
  EXPECT_EQ(got.method, want.method) << context;
  EXPECT_EQ(got.note, want.note) << context;
  EXPECT_EQ(got.constraints_ok, want.constraints_ok) << context;
  EXPECT_EQ(got.checks, want.checks) << context;
}

/// Every VerifyReport field except the measurements (wall_ms, cpu_ms,
/// max_rss_kb on the verdict and on each stage).
void expect_reports_equal(const VerifyReport& got, const VerifyReport& want,
                          const std::string& context) {
  expect_verdicts_equal(got.verdict, want.verdict, context);
  EXPECT_EQ(got.verdict.expected_deadlock_free,
            want.verdict.expected_deadlock_free)
      << context;
  ASSERT_EQ(got.stages.size(), want.stages.size()) << context;
  for (std::size_t i = 0; i < got.stages.size(); ++i) {
    StageStats got_stage = got.stages[i];
    got_stage.wall_ms = want.stages[i].wall_ms;
    got_stage.cpu_ms = want.stages[i].cpu_ms;
    EXPECT_EQ(got_stage, want.stages[i]) << context << " stage " << i;
  }
  EXPECT_EQ(got.diagnostics, want.diagnostics) << context;
  EXPECT_EQ(got.cache.contexts, want.cache.contexts) << context;
  EXPECT_EQ(got.cache.dep_graph, want.cache.dep_graph) << context;
  EXPECT_EQ(got.cache.acyclicity, want.cache.acyclicity) << context;
  EXPECT_EQ(got.cache.escape, want.cache.escape) << context;
  EXPECT_EQ(got.cache.constraints, want.cache.constraints) << context;
}

/// The sweep population every equality test ranges over: the non-heavy
/// registry capped at the 64x64 oracle scale (mesh128-xy has its own test —
/// a sequential legacy pass there costs ~10 s under ASan per thread count
/// and adds no logic the 64x64 presets lack).
std::vector<InstanceSpec> equality_presets() {
  auto presets = InstanceRegistry::global().sweep_presets();
  std::erase_if(presets, [](const InstanceSpec& spec) {
    return spec.node_count() > InstanceRegistry::kOracleNodeLimit;
  });
  return presets;
}

TEST(VerifyPipeline, MatchesLegacyAcrossThreadCountsOnSmallPresets) {
  // 1/4/8-thread pools on every preset up to 16x16 (the 64x64-class presets
  // get their own single-pass tests below: on this container each escape
  // analysis there costs seconds, and the thread axis adds no logic the
  // small escape presets don't already cover).
  auto presets = equality_presets();
  std::erase_if(presets, [](const InstanceSpec& spec) {
    return spec.node_count() > 16 * 16;
  });
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    BatchRunner runner(threads);
    for (const InstanceSpec& spec : presets) {
      const NetworkInstance instance(spec);
      InstanceVerifyOptions options;
      options.runner = &runner;
      const InstanceVerdict want = legacy_verify(instance, options);
      // Wrapper path (the instance's own context).
      expect_verdicts_equal(
          instance.verify(options), want,
          spec.name + " wrapper @" + std::to_string(threads) + "t");
      // Explicit pipeline over a store-shared context.
      ArtifactStore store;
      const std::shared_ptr<AnalysisArtifacts> artifacts =
          store.acquire(spec);
      const VerifyReport report =
          VerifyPipeline::standard().run(instance, *artifacts, options);
      expect_verdicts_equal(
          report.verdict, want,
          spec.name + " store @" + std::to_string(threads) + "t");
    }
  }
}

TEST(VerifyPipeline, MatchesLegacyOnThePoolOnEveryPreset) {
  BatchRunner runner(4);
  for (const InstanceSpec& spec : equality_presets()) {
    const NetworkInstance instance(spec);
    InstanceVerifyOptions options;
    options.runner = &runner;
    expect_verdicts_equal(instance.verify(options),
                          legacy_verify(instance, options),
                          spec.name + " @4t");
  }
}

TEST(VerifyPipeline, MatchesLegacyVerdictsSequentially) {
  for (const InstanceSpec& spec : equality_presets()) {
    const NetworkInstance instance(spec);
    const InstanceVerifyOptions options;  // no pool
    expect_verdicts_equal(instance.verify(options),
                          legacy_verify(instance, options),
                          spec.name + " sequential");
  }
}

TEST(VerifyPipeline, MatchesLegacyWithConstraintsAndGenericBuilder) {
  // The option axes the sweep tests leave off, on presets small enough for
  // the quadratic (C-2) witness search and the generic oracle builder.
  for (const std::string& name :
       {std::string("hermes"), std::string("mesh8-adaptive"),
        std::string("hermes-torus")}) {
    const InstanceSpec* spec = InstanceRegistry::global().find(name);
    ASSERT_NE(spec, nullptr) << name;
    for (const bool generic : {false, true}) {
      // One instance per option value: a shared one would hand the second
      // run the first run's cached graph.
      const NetworkInstance instance(*spec);
      InstanceVerifyOptions options;
      options.check_constraints = true;
      options.generic_builder = generic;
      const std::string context = name + (generic ? " generic" : " fast");
      const VerifyReport report =
          VerifyPipeline::standard().run(instance, options);
      EXPECT_EQ(report.cache.dep_graph.misses, 1u) << context;
      expect_verdicts_equal(report.verdict, legacy_verify(instance, options),
                            context);
    }
  }
}

TEST(VerifyPipeline, Mesh128MatchesLegacyOnThePool) {
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh128-xy");
  ASSERT_NE(spec, nullptr);
  BatchRunner runner(4);
  InstanceVerifyOptions options;
  options.runner = &runner;
  const NetworkInstance instance(*spec);
  expect_verdicts_equal(instance.verify(options),
                        legacy_verify(instance, options), "mesh128-xy @4t");
}

TEST(VerifyPipeline, SpecRunMatchesInstanceRunOnPresetsAndFaultVariants) {
  // run(spec, artifacts) builds no NetworkInstance: its header fields come
  // from the spec and the artifact context. It must render the same report
  // as the NetworkInstance overload over the instance's own context (built
  // without a base, so never by delta), including on fault variants whose
  // store context is delta-built from a base.
  std::vector<InstanceSpec> specs = equality_presets();
  for (const char* text :
       {"topology=mesh size=8x8 routing=xy failed=9:E,20:S",
        "topology=torus size=8x8 routing=torus_xy escape=xy "
        "failed=0:E,27:N"}) {
    std::string error;
    const std::optional<InstanceSpec> variant =
        parse_instance_spec(text, &error);
    ASSERT_TRUE(variant.has_value()) << error;
    specs.push_back(*variant);
  }
  BatchRunner runner(4);
  InstanceVerifyOptions options;
  options.runner = &runner;
  std::size_t delta_built = 0;
  std::size_t inherited = 0;
  for (const InstanceSpec& spec : specs) {
    const NetworkInstance instance(spec);
    const std::string context = instance.name();
    VerifyReport want = VerifyPipeline::standard().run(instance, options);
    ArtifactStore store;
    const std::shared_ptr<AnalysisArtifacts> artifacts = store.acquire(spec);
    const VerifyReport got =
        VerifyPipeline::standard().run(spec, *artifacts, options);
    if (store.context_count() == 2 && want.verdict.dep_acyclic) {
      // A variant of an acyclic base inherits the verdict and counts its
      // edges from the base: it neither builds nor reads a graph of its own.
      EXPECT_EQ(got.cache.dep_graph, (ArtifactCounter{0, 0})) << context;
      want.cache.dep_graph = got.cache.dep_graph;
      ++inherited;
    }
    expect_reports_equal(got, want, context);
    // The header fields, straight from the constructed instance.
    EXPECT_EQ(got.verdict.instance, instance.name()) << context;
    EXPECT_EQ(got.verdict.routing, instance.routing().name()) << context;
    EXPECT_EQ(got.verdict.switching, instance.switching().name()) << context;
    EXPECT_EQ(got.verdict.nodes, instance.topology().node_count()) << context;
    EXPECT_EQ(got.verdict.ports, instance.topology().port_count()) << context;
    EXPECT_EQ(got.verdict.deterministic,
              instance.routing().is_deterministic())
        << context;
    delta_built += store.context_count() == 2 ? 1 : 0;  // variant + base
  }
  EXPECT_EQ(delta_built, 2u);
  EXPECT_EQ(inherited, 1u);  // the mesh variant; the torus base is cyclic
}

TEST(VerifyPipeline, BatchSweepPrimesEachDistinctClosureExactlyOnce) {
  // The acceptance bar: a `verify --all` shaped sweep over a shared store
  // builds each distinct topology x routing x escape context exactly once
  // (the name predates the lazy closure, which has no build step to count).
  const std::vector<InstanceSpec> presets = equality_presets();
  std::set<std::string> keys;
  for (const InstanceSpec& spec : presets) {
    keys.insert(AnalysisArtifacts::key(spec));
  }
  ASSERT_LT(keys.size(), presets.size())
      << "the registry should contain at least one duplicate analysis "
         "prefix (mesh8-xy vs mesh8-xy-sf) for this test to bite";

  BatchRunner runner(4);
  InstanceVerifyOptions base;
  ArtifactStore store;
  base.artifacts = &store;
  const std::vector<VerifyReport> reports = verify_instance_reports(
      presets, VerifyPipeline::standard(), &runner, base);
  ASSERT_EQ(reports.size(), presets.size());

  // Distinct contexts materialized once; duplicates acquired as hits.
  EXPECT_EQ(store.context_count(), keys.size());
  const ArtifactCacheStats stats = store.stats();
  EXPECT_EQ(stats.contexts.misses, keys.size());
  EXPECT_EQ(stats.contexts.hits, presets.size() - keys.size());
  // One dependency-graph build per distinct context — never per instance.
  EXPECT_EQ(stats.dep_graph.misses, keys.size());
  EXPECT_EQ(stats.acyclicity.misses, keys.size());
  // One escape analysis per distinct context that reached it.
  std::set<std::string> escape_keys;
  for (std::size_t i = 0; i < presets.size(); ++i) {
    if (reports[i].verdict.method.rfind("escape(", 0) == 0) {
      escape_keys.insert(AnalysisArtifacts::key(presets[i]));
    }
  }
  EXPECT_EQ(stats.escape.misses, escape_keys.size());
}

TEST(VerifyPipeline, SweepCacheTotalsAreTheSameAtEveryThreadCount) {
  // `verify --all`: the analyzer pre-screen acquires every context from the
  // store, then the sweep verifies on the same pool. The split of the
  // counters between instances sharing a context (mesh8-xy, mesh8-xy-sf)
  // depends on which acquires it first; the store's totals must not.
  const std::vector<InstanceSpec> specs =
      InstanceRegistry::global().sweep_presets();
  std::optional<ArtifactCacheStats> one_thread;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}, std::size_t{16}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    BatchRunner runner(threads);
    ArtifactStore store;
    InstanceVerifyOptions options;
    options.artifacts = &store;
    for (const InstanceSpec& spec : specs) {
      Analyzer::cheap().run(spec, *store.acquire(spec), {}, &runner);
    }
    verify_instance_reports(specs, VerifyPipeline::standard(), &runner,
                            options);
    const ArtifactCacheStats stats = store.stats();
    if (!one_thread) {
      one_thread = stats;
      continue;
    }
    EXPECT_EQ(stats.contexts, one_thread->contexts);
    EXPECT_EQ(stats.dep_graph, one_thread->dep_graph);
    EXPECT_EQ(stats.acyclicity, one_thread->acyclicity);
    EXPECT_EQ(stats.escape, one_thread->escape);
    EXPECT_EQ(stats.constraints, one_thread->constraints);
  }
}

TEST(VerifyPipeline, DuplicateSpecsInOneBatchShareEveryArtifact) {
  const InstanceSpec* torus = InstanceRegistry::global().find("torus8-xy");
  ASSERT_NE(torus, nullptr);
  // Same analysis prefix three times (one under a different workload), plus
  // one unrelated preset.
  InstanceSpec other_workload = *torus;
  other_workload.name = "torus8-xy-alt";
  other_workload.messages = 7;
  other_workload.pattern = "transpose";
  const InstanceSpec* mesh = InstanceRegistry::global().find("mesh8-xy");
  ASSERT_NE(mesh, nullptr);
  const std::vector<InstanceSpec> specs = {*torus, other_workload, *torus,
                                           *mesh};

  InstanceVerifyOptions base;
  ArtifactStore store;
  base.artifacts = &store;
  const std::vector<VerifyReport> reports = verify_instance_reports(
      specs, VerifyPipeline::standard(), nullptr, base);
  EXPECT_EQ(store.context_count(), 2u);
  const ArtifactCacheStats stats = store.stats();
  EXPECT_EQ(stats.contexts.misses, 2u);
  EXPECT_EQ(stats.contexts.hits, 2u);
  EXPECT_EQ(stats.dep_graph.misses, 2u);
  EXPECT_EQ(stats.escape.misses, 1u);   // the torus context, once
  EXPECT_EQ(stats.escape.hits, 2u);     // reused by both torus duplicates
  // And the shared-artifact verdicts still equal the solo ones.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_verdicts_equal(reports[i].verdict,
                          NetworkInstance(specs[i]).verify({}),
                          "duplicate-batch row " + std::to_string(i));
  }
}

TEST(VerifyPipeline, StageRegistryExposesTheStandardOrder) {
  const std::vector<std::string> names = VerifyPipeline::default_stage_names();
  const std::vector<std::string> want = {"build_depgraph", "scc_acyclicity",
                                         "escape", "constraints"};
  EXPECT_EQ(names, want);
  for (const std::string& name : want) {
    EXPECT_NE(CheckRegistry::global().find(name), nullptr) << name;
  }
  EXPECT_EQ(CheckRegistry::global().find("no-such-stage"), nullptr);
}

TEST(VerifyPipeline, UnknownStageNamesAreRejectedWithTheKnownList) {
  std::string error;
  EXPECT_FALSE(VerifyPipeline::from_stage_names({"escape", "banana"}, &error)
                   .has_value());
  EXPECT_NE(error.find("banana"), std::string::npos);
  EXPECT_NE(error.find("scc_acyclicity"), std::string::npos);
  EXPECT_FALSE(VerifyPipeline::from_stage_names({}, &error).has_value());
  // Duplicates would re-run a stage's verdict mutations (double-counted
  // checks, duplicated diagnostics).
  EXPECT_FALSE(VerifyPipeline::from_stage_names({"escape", "escape"}, &error)
                   .has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos);
}

TEST(VerifyPipeline, SubsetWithoutDecidingStageIsUndecided) {
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh8-xy");
  ASSERT_NE(spec, nullptr);
  std::string error;
  const auto pipeline =
      VerifyPipeline::from_stage_names({"build_depgraph"}, &error);
  ASSERT_TRUE(pipeline.has_value()) << error;
  const VerifyReport report =
      pipeline->run(NetworkInstance(*spec), InstanceVerifyOptions{});
  EXPECT_FALSE(report.verdict.deadlock_free);
  EXPECT_EQ(report.verdict.method, "undecided");
  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_TRUE(report.stages[0].ran);
  const auto undecided = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.code == "undecided"; });
  ASSERT_NE(undecided, report.diagnostics.end());
  EXPECT_EQ(undecided->severity, Severity::kWarning);
}

TEST(VerifyPipeline, SubsetStagesStillPublishTheGraphFactsTheyComputed) {
  // --stages escape omits build_depgraph/scc_acyclicity, but the artifact
  // cache computes the graph on demand — the report must carry its real
  // shape, not zero-initialized defaults.
  const InstanceSpec* spec = InstanceRegistry::global().find("torus8-xy");
  ASSERT_NE(spec, nullptr);
  std::string error;
  const auto pipeline = VerifyPipeline::from_stage_names({"escape"}, &error);
  ASSERT_TRUE(pipeline.has_value()) << error;
  const VerifyReport report =
      pipeline->run(NetworkInstance(*spec), InstanceVerifyOptions{});
  const InstanceVerdict full =
      NetworkInstance(*spec).verify(InstanceVerifyOptions{});
  EXPECT_EQ(report.verdict.edges, full.edges);
  EXPECT_EQ(report.verdict.dep_acyclic, full.dep_acyclic);
  EXPECT_EQ(report.verdict.deadlock_free, full.deadlock_free);
  EXPECT_EQ(report.verdict.method, full.method);
}

TEST(VerifyPipeline, ConstraintsOnlySubsetStaysUndecidedWhenTheyPass) {
  // (C-1)/(C-2) holding does not prove deadlock-freedom: a subset without a
  // deciding stage must still report "undecided" — but with the constraint
  // evidence accounted.
  const InstanceSpec* spec = InstanceRegistry::global().find("hermes");
  ASSERT_NE(spec, nullptr);
  std::string error;
  const auto pipeline = VerifyPipeline::from_stage_names(
      {"build_depgraph", "constraints"}, &error);
  ASSERT_TRUE(pipeline.has_value()) << error;
  InstanceVerifyOptions options;
  options.check_constraints = true;
  const VerifyReport report =
      pipeline->run(NetworkInstance(*spec), options);
  EXPECT_TRUE(report.verdict.constraints_ok);
  EXPECT_FALSE(report.verdict.deadlock_free);
  EXPECT_EQ(report.verdict.method, "undecided");
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_TRUE(report.stages[1].ran);
  EXPECT_TRUE(report.stages[1].passed);
  EXPECT_GT(report.stages[1].checks, 0u);
}

TEST(VerifyPipeline, EscapeStageSkipsOnAcyclicGraphsAndExplainsWhy) {
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh8-xy");
  ASSERT_NE(spec, nullptr);
  const VerifyReport report = VerifyPipeline::standard().run(
      NetworkInstance(*spec), InstanceVerifyOptions{});
  const auto escape_stats = std::find_if(
      report.stages.begin(), report.stages.end(),
      [](const StageStats& s) { return s.stage == "escape"; });
  ASSERT_NE(escape_stats, report.stages.end());
  EXPECT_FALSE(escape_stats->ran);
  EXPECT_NE(escape_stats->skip_reason.find("acyclic"), std::string::npos);
  const auto constraints_stats = std::find_if(
      report.stages.begin(), report.stages.end(),
      [](const StageStats& s) { return s.stage == "constraints"; });
  ASSERT_NE(constraints_stats, report.stages.end());
  EXPECT_FALSE(constraints_stats->ran);
  EXPECT_NE(constraints_stats->skip_reason.find("--constraints"),
            std::string::npos);
}

TEST(VerifyPipeline, TypedDiagnosticsCarryTheEvidence) {
  // Cyclic primary graph cured by the escape lane: expect the info build
  // record, the warning cycle, and the info escape verification.
  const InstanceSpec* cured = InstanceRegistry::global().find("torus8-xy");
  ASSERT_NE(cured, nullptr);
  const VerifyReport cured_report = VerifyPipeline::standard().run(
      NetworkInstance(*cured), InstanceVerifyOptions{});
  std::vector<std::string> codes;
  for (const Diagnostic& diagnostic : cured_report.diagnostics) {
    codes.push_back(diagnostic.code);
  }
  const std::vector<std::string> want = {"depgraph-built", "dep-cyclic",
                                         "escape-verified"};
  EXPECT_EQ(codes, want);
  const Diagnostic& cyclic = cured_report.diagnostics[1];
  EXPECT_EQ(cyclic.severity, Severity::kWarning);
  ASSERT_FALSE(cyclic.witness.empty());
  EXPECT_EQ(cyclic.witness[0].first, "cycle_length");

  // Cyclic with NO escape lane: the error diagnostic carries the legacy
  // note verbatim.
  std::string error;
  const auto prone = InstanceRegistry::global().resolve(
      "topology=torus size=4x4 routing=torus_xy", &error);
  ASSERT_TRUE(prone.has_value()) << error;
  const VerifyReport prone_report = VerifyPipeline::standard().run(
      NetworkInstance(*prone), InstanceVerifyOptions{});
  const auto no_lane = std::find_if(
      prone_report.diagnostics.begin(), prone_report.diagnostics.end(),
      [](const Diagnostic& d) { return d.code == "no-escape-lane"; });
  ASSERT_NE(no_lane, prone_report.diagnostics.end());
  EXPECT_EQ(no_lane->severity, Severity::kError);
  EXPECT_EQ(no_lane->message, prone_report.verdict.note);
}

TEST(VerifyPipeline, ReportCacheCountersAreTheRunsOwnDelta) {
  const InstanceSpec* spec = InstanceRegistry::global().find("torus8-xy");
  ASSERT_NE(spec, nullptr);
  const NetworkInstance instance(*spec);
  ArtifactStore store;
  InstanceVerifyOptions options;
  options.artifacts = &store;
  const VerifyReport first =
      VerifyPipeline::standard().run(instance, options);
  EXPECT_EQ(first.cache.dep_graph.misses, 1u);
  EXPECT_EQ(first.cache.escape.misses, 1u);
  const VerifyReport second =
      VerifyPipeline::standard().run(instance, options);
  // The second run over the same store recomputes nothing.
  EXPECT_EQ(second.cache.dep_graph.misses, 0u);
  EXPECT_EQ(second.cache.escape.misses, 0u);
  EXPECT_EQ(second.cache.escape.hits, 1u);
  expect_verdicts_equal(second.verdict, first.verdict, "warm rerun");
}

TEST(VerifyPipeline, InstanceForwardsToItsOneContext) {
  // NetworkInstance builds no topology or routing of its own: every
  // constituent is the context's object, on grids and id-native families,
  // with and without an escape lane.
  for (const char* name : {"torus8-xy", "mesh8-xy", "dragonfly9-min"}) {
    const InstanceSpec* spec = InstanceRegistry::global().find(name);
    ASSERT_NE(spec, nullptr) << name;
    const NetworkInstance instance(*spec);
    EXPECT_EQ(&instance.topology(), &instance.context().topology()) << name;
    EXPECT_EQ(&instance.routing(), &instance.context().routing()) << name;
    EXPECT_EQ(instance.escape(), instance.context().escape_routing()) << name;
    EXPECT_EQ(instance.escape() != nullptr, !spec->escape.empty()) << name;
  }
}

TEST(VerifyPipeline, SecondRunOnOneInstanceReusesItsContext) {
  const InstanceSpec* spec = InstanceRegistry::global().find("torus8-xy");
  ASSERT_NE(spec, nullptr);
  const NetworkInstance instance(*spec);
  const VerifyReport first =
      VerifyPipeline::standard().run(instance, InstanceVerifyOptions{});
  EXPECT_EQ(first.cache.dep_graph.misses, 1u);
  EXPECT_EQ(first.cache.escape.misses, 1u);
  const VerifyReport second =
      VerifyPipeline::standard().run(instance, InstanceVerifyOptions{});
  EXPECT_EQ(second.cache.dep_graph.misses, 0u);
  EXPECT_EQ(second.cache.escape.misses, 0u);
  EXPECT_EQ(second.cache.escape.hits, 1u);
  expect_verdicts_equal(second.verdict, first.verdict, "warm instance rerun");
}

TEST(VerifyPipeline, ConcurrentVerifiesOnOneInstanceComputeOnce) {
  // verify() is const and may run from several threads at once: the calls
  // serialize on the context's lock, so the graph and the escape analysis
  // are computed once and every caller reads the same verdict.
  const InstanceSpec* spec = InstanceRegistry::global().find("torus8-xy");
  ASSERT_NE(spec, nullptr);
  const NetworkInstance instance(*spec);
  BatchRunner runner(4);
  std::vector<InstanceVerdict> verdicts(8);
  runner.parallel_for(verdicts.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          verdicts[i] = instance.verify();
                        }
                      });
  for (const InstanceVerdict& verdict : verdicts) {
    expect_verdicts_equal(verdict, verdicts.front(), "concurrent verify");
  }
  EXPECT_TRUE(verdicts.front().deadlock_free);
  const ArtifactCacheStats stats = instance.context().stats();
  EXPECT_EQ(stats.dep_graph.misses, 1u);
  EXPECT_EQ(stats.escape.misses, 1u);
  EXPECT_EQ(stats.escape.hits, verdicts.size() - 1);
}

TEST(VerifyPipeline, ArtifactKeyIgnoresWorkloadAndSwitching) {
  const InstanceSpec* a = InstanceRegistry::global().find("mesh8-xy");
  const InstanceSpec* b = InstanceRegistry::global().find("mesh8-xy-sf");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(AnalysisArtifacts::key(*a), AnalysisArtifacts::key(*b));
  const InstanceSpec* c = InstanceRegistry::global().find("mesh8-yx");
  ASSERT_NE(c, nullptr);
  EXPECT_NE(AnalysisArtifacts::key(*a), AnalysisArtifacts::key(*c));
}

}  // namespace
}  // namespace genoc
