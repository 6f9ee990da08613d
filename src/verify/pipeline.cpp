#include "verify/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "instance/network_instance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace genoc {

namespace {

/// Counter/stats deltas, so a report shows what ITS run computed or reused
/// rather than the shared cache's lifetime totals.
ArtifactCounter counter_delta(const ArtifactCounter& later,
                              const ArtifactCounter& earlier) {
  return {later.misses - earlier.misses, later.hits - earlier.hits};
}

ArtifactCacheStats stats_delta(const ArtifactCacheStats& later,
                               const ArtifactCacheStats& earlier) {
  ArtifactCacheStats delta;
  delta.contexts = counter_delta(later.contexts, earlier.contexts);
  delta.dep_graph = counter_delta(later.dep_graph, earlier.dep_graph);
  delta.acyclicity = counter_delta(later.acyclicity, earlier.acyclicity);
  delta.escape = counter_delta(later.escape, earlier.escape);
  delta.constraints = counter_delta(later.constraints, earlier.constraints);
  return delta;
}

/// Facts every graph-consuming stage re-publishes into the verdict: in a
/// --stages subset that omits build_depgraph/scc_acyclicity, the artifact
/// cache still computes the graph on demand, and the report must carry its
/// real shape rather than zero-initialized defaults. Idempotent — in the
/// standard pipeline this rewrites the values the earlier stages set.
void publish_graph_facts(CheckContext& ctx, const AcyclicityArtifact* acyclicity) {
  ctx.report.verdict.edges =
      ctx.artifacts.edge_count(ctx.options.generic_builder, ctx.pool);
  if (acyclicity != nullptr) {
    ctx.report.verdict.dep_acyclic = acyclicity->acyclic;
  }
}

Diagnostic make_diagnostic(
    const char* stage, Severity severity, std::string code,
    std::string message,
    std::vector<std::pair<std::string, std::string>> witness = {}) {
  Diagnostic diag;
  diag.stage = stage;
  diag.severity = severity;
  diag.code = std::move(code);
  diag.message = std::move(message);
  diag.witness = std::move(witness);
  return diag;
}

/// Stage 1: materialize the channel-dependency graph and account the
/// enumeration work — the generic construction's (port, dest) domain plus
/// one check per produced edge, a deterministic count independent of
/// sharding and of which (bit-identical) builder ran. A fault variant of a
/// certified acyclic base builds no graph here: it reads the edge count
/// its base's degrees give (AnalysisArtifacts::edge_count).
class BuildDepGraphCheck final : public Check {
 public:
  const char* name() const override { return "build_depgraph"; }
  const char* description() const override {
    return "materialize the channel-dependency graph (Sec. IV.A); "
           "analytic O(ports) builder, else per-destination on the pool; "
           "fault variants of an acyclic base count edges from the base";
  }

  StageStats run(CheckContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    InstanceVerdict& verdict = ctx.report.verdict;
    verdict.edges =
        ctx.artifacts.edge_count(ctx.options.generic_builder, ctx.pool);
    const ModelFacts& facts = ctx.artifacts.facts();
    stats.checks =
        static_cast<std::uint64_t>(facts.ports) * facts.destinations +
        verdict.edges;
    verdict.checks += stats.checks;
    stats.ran = true;
    stats.passed = true;
    ctx.report.diagnostics.push_back(make_diagnostic(
        name(), Severity::kInfo, "depgraph-built",
        "dependency graph: " + std::to_string(verdict.edges) + " edges over " +
            std::to_string(verdict.ports) + " ports",
        {{"edges", std::to_string(verdict.edges)},
         {"ports", std::to_string(verdict.ports)}}));
    return stats;
  }
};

/// Stage 2: Theorem 1 / (C-3) — acyclicity of the dependency graph, with a
/// DFS cycle witness on failure. A fault variant of an acyclic base
/// inherits the base's rank-certified verdict without a DFS of its own
/// (AnalysisArtifacts::acyclicity).
class SccAcyclicityCheck final : public Check {
 public:
  const char* name() const override { return "scc_acyclicity"; }
  const char* description() const override {
    return "decide (C-3) acyclicity (Theorem 1) via one sequential DFS, "
           "with a cycle witness on failure; fault variants of an acyclic "
           "base inherit its rank-certified verdict";
  }

  StageStats run(CheckContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    const AcyclicityArtifact& acyclicity =
        ctx.artifacts.acyclicity(ctx.options.generic_builder, ctx.pool);
    publish_graph_facts(ctx, &acyclicity);
    InstanceVerdict& verdict = ctx.report.verdict;
    stats.ran = true;
    stats.passed = acyclicity.acyclic;
    if (acyclicity.acyclic) {
      verdict.deadlock_free = true;
      verdict.method = "Theorem 1 (C-3)";
      verdict.note = "dependency graph acyclic";
      ctx.report.diagnostics.push_back(
          make_diagnostic(name(), Severity::kInfo, "dep-acyclic",
                          "dependency graph acyclic"));
    } else {
      const PortDepGraph& dep =
          ctx.artifacts.dep_graph(ctx.options.generic_builder, ctx.pool);
      const CycleWitness& cycle = *acyclicity.cycle;
      // A cyclic primary graph is not final — the escape stage may still
      // cure it — hence a warning, not an error.
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kWarning, "dep-cyclic",
          "dependency cycle of length " + std::to_string(cycle.size()) +
              " through " + dep.label(cycle.front()),
          {{"cycle_length", std::to_string(cycle.size())},
           {"through", dep.label(cycle.front())}}));
    }
    return stats;
  }
};

/// Stage 3: the Duato escape-lane fallback for cyclic primary graphs.
class EscapeCheck final : public Check {
 public:
  const char* name() const override { return "escape"; }
  const char* description() const override {
    return "Duato escape-lane analysis for cyclic graphs: escape "
           "availability on every adaptive-reachable state + acyclic "
           "escape closure";
  }

  StageStats run(CheckContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    const AcyclicityArtifact& acyclicity =
        ctx.artifacts.acyclicity(ctx.options.generic_builder, ctx.pool);
    publish_graph_facts(ctx, &acyclicity);
    if (acyclicity.acyclic) {
      stats.ran = false;
      stats.passed = true;
      // States the stage's applicability fact only: whether Theorem 1
      // DECIDED the verdict is scc_acyclicity's claim to make (a --stages
      // subset may not contain it).
      stats.skip_reason = "dependency graph acyclic — no cycle to escape";
      return stats;
    }
    InstanceVerdict& verdict = ctx.report.verdict;
    stats.ran = true;
    if (ctx.artifacts.escape_routing() == nullptr) {
      const PortDepGraph& dep =
          ctx.artifacts.dep_graph(ctx.options.generic_builder, ctx.pool);
      const CycleWitness& cycle = *acyclicity.cycle;
      verdict.deadlock_free = false;
      verdict.method = "cycle";
      verdict.note = "dependency cycle of length " +
                     std::to_string(cycle.size()) + " through " +
                     dep.label(cycle.front()) +
                     " and no escape lane (Theorem 1: deadlock reachable)";
      stats.passed = false;
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError, "no-escape-lane", verdict.note,
          {{"cycle_length", std::to_string(cycle.size())},
           {"through", dep.label(cycle.front())}}));
      return stats;
    }
    const EscapeAnalysis& analysis = ctx.artifacts.escape_analysis(ctx.pool);
    verdict.deadlock_free = analysis.deadlock_free;
    verdict.method = "escape(" + ctx.spec.escape + ")";
    verdict.note = analysis.summary();
    verdict.checks += analysis.states_checked;
    stats.checks = analysis.states_checked;
    stats.passed = analysis.deadlock_free;
    std::vector<std::pair<std::string, std::string>> witness = {
        {"states_checked", std::to_string(analysis.states_checked)},
        {"escape_graph_edges",
         std::to_string(analysis.escape_graph.graph.edge_count())},
        {"escape_graph_acyclic", analysis.escape_graph_acyclic ? "true"
                                                               : "false"}};
    if (!analysis.escape_always_available) {
      witness.emplace_back("missing_states",
                           std::to_string(analysis.missing_states));
      witness.emplace_back("first_missing", analysis.missing_escape);
    }
    ctx.report.diagnostics.push_back(make_diagnostic(
        name(),
        analysis.deadlock_free ? Severity::kInfo : Severity::kError,
        analysis.deadlock_free ? "escape-verified" : "escape-refuted",
        analysis.summary(), std::move(witness)));
    return stats;
  }
};

/// Stage 4: (C-1)/(C-2), opt-in via --constraints.
class ConstraintsCheck final : public Check {
 public:
  const char* name() const override { return "constraints"; }
  const char* description() const override {
    return "discharge (C-1)/(C-2): routing dependencies are edges, every "
           "edge is realizable (opt-in: --constraints)";
  }

  StageStats run(CheckContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    if (!ctx.options.check_constraints) {
      stats.ran = false;
      stats.passed = true;
      stats.skip_reason = "not requested (--constraints)";
      return stats;
    }
    if (!ctx.spec.is_grid()) {
      // (C-1)/(C-2) are stated over the grid Port tuple; the non-grid
      // families are decided by (C-3) alone until the checkers learn the
      // id-based dialect.
      stats.ran = false;
      stats.passed = true;
      stats.skip_reason = "(C-1)/(C-2) are grid-only; " + ctx.spec.topology +
                          " instances are decided by (C-3)";
      return stats;
    }
    const ConstraintsArtifact& reports =
        ctx.artifacts.constraints(ctx.options.generic_builder, ctx.pool);
    publish_graph_facts(ctx, nullptr);
    InstanceVerdict& verdict = ctx.report.verdict;
    verdict.constraints_ok = reports.c1.satisfied && reports.c2.satisfied;
    stats.checks = reports.c1.checks + reports.c2.checks;
    verdict.checks += stats.checks;
    stats.ran = true;
    stats.passed = verdict.constraints_ok;
    if (!verdict.constraints_ok) {
      const std::string summary = reports.c1.satisfied
                                      ? reports.c2.summary()
                                      : reports.c1.summary();
      verdict.deadlock_free = false;
      // In the standard pipeline a deciding stage has already filled
      // method/note and the violation is appended; in a --stages subset
      // where nothing else decided, this refutation IS the verdict — claim
      // it rather than letting the "undecided" fallback mask it.
      if (verdict.method.empty()) {
        verdict.method = "constraints";
      }
      verdict.note += (verdict.note.empty() ? "constraint violation: "
                                            : "; constraint violation: ") +
                      summary;
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError, "constraint-violated", summary,
          {{"c1_satisfied", reports.c1.satisfied ? "true" : "false"},
           {"c2_satisfied", reports.c2.satisfied ? "true" : "false"}}));
    } else {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kInfo, "constraints-discharged",
          "(C-1)/(C-2) discharged over " + std::to_string(stats.checks) +
              " checks",
          {{"c1_checks", std::to_string(reports.c1.checks)},
           {"c2_checks", std::to_string(reports.c2.checks)}}));
    }
    return stats;
  }
};

}  // namespace

CheckRegistry::CheckRegistry() {
  owned_.push_back(std::make_unique<BuildDepGraphCheck>());
  owned_.push_back(std::make_unique<SccAcyclicityCheck>());
  owned_.push_back(std::make_unique<EscapeCheck>());
  owned_.push_back(std::make_unique<ConstraintsCheck>());
  views_.reserve(owned_.size());
  for (const auto& check : owned_) {
    views_.push_back(check.get());
  }
}

const CheckRegistry& CheckRegistry::global() {
  static const CheckRegistry registry;
  return registry;
}

std::vector<std::string> CheckRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(views_.size());
  for (const Check* check : views_) {
    result.emplace_back(check->name());
  }
  return result;
}

const Check* CheckRegistry::find(const std::string& name) const {
  for (const Check* check : views_) {
    if (name == check->name()) {
      return check;
    }
  }
  return nullptr;
}

VerifyPipeline::VerifyPipeline(std::vector<const Check*> stages)
    : stages_(std::move(stages)) {}

const std::vector<std::string>& VerifyPipeline::default_stage_names() {
  static const std::vector<std::string> names = CheckRegistry::global().names();
  return names;
}

const VerifyPipeline& VerifyPipeline::standard() {
  static const VerifyPipeline pipeline(CheckRegistry::global().checks());
  return pipeline;
}

std::optional<VerifyPipeline> VerifyPipeline::from_stage_names(
    const std::vector<std::string>& names, std::string* error) {
  const CheckRegistry& registry = CheckRegistry::global();
  std::vector<const Check*> stages;
  stages.reserve(names.size());
  for (const std::string& name : names) {
    const Check* check = registry.find(name);
    if (check == nullptr) {
      if (error != nullptr) {
        *error = "unknown check stage '" + name + "'; registered stages:";
        for (const Check* known : registry.checks()) {
          *error += std::string(" ") + known->name();
        }
      }
      return std::nullopt;
    }
    // A repeated stage would re-run its verdict mutations (double-counting
    // checks, duplicating diagnostics) — reject the typo outright.
    if (std::find(stages.begin(), stages.end(), check) != stages.end()) {
      if (error != nullptr) {
        *error = "duplicate check stage '" + name + "' in the selection";
      }
      return std::nullopt;
    }
    stages.push_back(check);
  }
  if (stages.empty()) {
    if (error != nullptr) {
      *error = "empty stage selection";
    }
    return std::nullopt;
  }
  return VerifyPipeline(std::move(stages));
}

std::vector<std::string> VerifyPipeline::stage_names() const {
  std::vector<std::string> result;
  result.reserve(stages_.size());
  for (const Check* check : stages_) {
    result.emplace_back(check->name());
  }
  return result;
}

VerifyReport VerifyPipeline::run(const InstanceSpec& spec,
                                 AnalysisArtifacts& artifacts,
                                 const InstanceVerifyOptions& options) const {
  obs::TraceSpan run_span("verify_pipeline");
  if (run_span.active()) {
    run_span.set_detail(display_name(spec));
  }
  Stopwatch timer;
  CpuStopwatch cpu_timer;
  const ArtifactCacheStats before = artifacts.stats();
  VerifyReport report;
  InstanceVerdict& verdict = report.verdict;
  verdict.instance = display_name(spec);
  verdict.spec = to_spec_string(spec);
  verdict.topology = spec.topology;
  // The header reads facts(), so a fault variant wired to its base derives
  // no grid for it.
  const ModelFacts& facts = artifacts.facts();
  verdict.routing = facts.routing;
  verdict.switching = switching_policy_name(spec.switching);
  verdict.nodes = facts.nodes;
  verdict.ports = facts.ports;
  verdict.deterministic = facts.deterministic;
  verdict.expected_deadlock_free = spec.expect_deadlock_free;

  CheckContext ctx{spec, artifacts, options, options.runner, report};
  report.stages.reserve(stages_.size());
  for (const Check* check : stages_) {
    obs::TraceSpan stage_span(check->name());
    Stopwatch stage_timer;
    CpuStopwatch stage_cpu;
    StageStats stats = check->run(ctx);
    stats.wall_ms = stage_timer.elapsed_ms();
    stats.cpu_ms = stage_cpu.elapsed_ms();
    report.stages.push_back(std::move(stats));
  }

  if (verdict.method.empty()) {
    // Only reachable through a custom --stages selection where no stage
    // decided anything (a passing constraints stage alone does not prove
    // deadlock-freedom): refuse to claim anything rather than mislead.
    verdict.method = "undecided";
    std::string selected;
    for (const Check* check : stages_) {
      selected += (selected.empty() ? "" : ",") + std::string(check->name());
    }
    verdict.note = "no deciding stage ran (selected: " + selected + ")";
    verdict.deadlock_free = false;
    report.diagnostics.push_back(make_diagnostic(
        "pipeline", Severity::kWarning, "undecided", verdict.note,
        {{"selected", selected}}));
  }

  report.cache = stats_delta(artifacts.stats(), before);
  verdict.wall_ms = timer.elapsed_ms();
  verdict.cpu_ms = cpu_timer.elapsed_ms();
  verdict.max_rss_kb = peak_rss_kb();
  {
    // Analysis-layer counters: thread-count-invariant (unlike threadpool.*),
    // so snapshots stay comparable across 1/4/8-thread runs.
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    static obs::Counter& runs = metrics.counter("verify.pipeline_runs");
    static obs::Counter& stages_run = metrics.counter("verify.stages_run");
    static obs::Counter& checks = metrics.counter("verify.checks");
    runs.increment();
    for (const StageStats& stats : report.stages) {
      if (stats.ran) {
        stages_run.increment();
      }
    }
    checks.add(verdict.checks);
    metrics.gauge("depgraph.max_edges")
        .record_max(static_cast<std::int64_t>(verdict.edges));
    metrics.gauge("depgraph.max_ports")
        .record_max(static_cast<std::int64_t>(verdict.ports));
  }
  return report;
}

VerifyReport VerifyPipeline::run(const NetworkInstance& instance,
                                 AnalysisArtifacts& artifacts,
                                 const InstanceVerifyOptions& options) const {
  return run(instance.spec(), artifacts, options);
}

VerifyReport VerifyPipeline::run(const NetworkInstance& instance,
                                 const InstanceVerifyOptions& options) const {
  if (options.artifacts != nullptr) {
    const std::shared_ptr<AnalysisArtifacts> shared =
        options.artifacts->acquire(instance.spec());
    return run(instance, *shared, options);
  }
  return run(instance, instance.context(), options);
}

}  // namespace genoc
