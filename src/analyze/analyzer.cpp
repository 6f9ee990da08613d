#include "analyze/analyzer.hpp"

#include <optional>
#include <utility>

#include "deadlock/depgraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"
#include "verify/artifacts.hpp"

namespace genoc {

namespace {

std::string join_names(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) {
      joined += ", ";
    }
    joined += name;
  }
  return joined;
}

}  // namespace

AnalyzeContext::AnalyzeContext(const InstanceSpec& spec,
                               const AnalysisArtifacts& artifacts,
                               const AnalyzeOptions& options,
                               AnalyzeReport& report,
                               std::function<const PortDepGraph&()> dep_graph)
    : spec(spec),
      options(options),
      report(report),
      dep_graph(std::move(dep_graph)),
      artifacts_(&artifacts) {}

AnalyzeContext::AnalyzeContext(const InstanceSpec& spec,
                               const Topology& topology,
                               const RoutingFunction& routing,
                               const RoutingFunction* escape,
                               const AnalyzeOptions& options,
                               AnalyzeReport& report,
                               std::function<const PortDepGraph&()> dep_graph)
    : spec(spec),
      options(options),
      report(report),
      dep_graph(std::move(dep_graph)),
      topology_(&topology),
      routing_(&routing),
      escape_(escape) {}

const Topology& AnalyzeContext::topology() const {
  return artifacts_ != nullptr ? artifacts_->topology() : *topology_;
}

const RoutingFunction& AnalyzeContext::routing() const {
  return artifacts_ != nullptr ? artifacts_->routing() : *routing_;
}

const RoutingFunction* AnalyzeContext::escape() const {
  return artifacts_ != nullptr ? artifacts_->escape_routing() : escape_;
}

ScreenModel AnalyzeContext::screen_model() const {
  if (artifacts_ == nullptr) {
    static const std::vector<LinkFault> kNoFaults;
    const Mesh2D* grid = routing_->grid();
    return {*topology_, *routing_,
            grid != nullptr ? grid->failed_links() : kNoFaults, nullptr};
  }
  // A wired variant reads its base's grid and routing; any other context
  // its own.
  const AnalysisArtifacts& model =
      artifacts_->base() != nullptr ? *artifacts_->base() : *artifacts_;
  return {model.topology(), model.routing(), artifacts_->faults(),
          &model.out_mask_histograms()};
}

Analyzer::Analyzer(std::vector<const AnalysisRule*> rules)
    : rules_(std::move(rules)) {}

const std::vector<std::string>& Analyzer::default_rule_names() {
  static const std::vector<std::string> names = RuleRegistry::global().names();
  return names;
}

const Analyzer& Analyzer::standard() {
  static const Analyzer analyzer(RuleRegistry::global().rules());
  return analyzer;
}

const std::vector<std::string>& Analyzer::cheap_rule_names() {
  static const std::vector<std::string> names = {"spec_sanity", "turns",
                                                 "uniformity"};
  return names;
}

const Analyzer& Analyzer::cheap() {
  static const Analyzer analyzer = [] {
    std::string error;
    std::optional<Analyzer> built = from_rule_names(cheap_rule_names(), &error);
    GENOC_REQUIRE(built.has_value(), "cheap analyzer must build: " + error);
    return *std::move(built);
  }();
  return analyzer;
}

std::optional<Analyzer> Analyzer::from_rule_names(
    const std::vector<std::string>& names, std::string* error) {
  if (names.empty()) {
    if (error != nullptr) {
      *error = "empty rule selection";
    }
    return std::nullopt;
  }
  const RuleRegistry& registry = RuleRegistry::global();
  std::vector<const AnalysisRule*> selected;
  selected.reserve(names.size());
  for (const std::string& name : names) {
    const AnalysisRule* rule = registry.find(name);
    if (rule == nullptr) {
      if (error != nullptr) {
        *error = "unknown analysis rule '" + name +
                 "'; registered rules: " + join_names(registry.names());
      }
      return std::nullopt;
    }
    for (const AnalysisRule* earlier : selected) {
      if (earlier == rule) {
        if (error != nullptr) {
          *error = "duplicate analysis rule '" + name + "' in the selection";
        }
        return std::nullopt;
      }
    }
    selected.push_back(rule);
  }
  return Analyzer(std::move(selected));
}

std::vector<std::string> Analyzer::rule_names() const {
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const AnalysisRule* rule : rules_) {
    names.emplace_back(rule->name());
  }
  return names;
}

AnalyzeReport Analyzer::run(const InstanceSpec& spec, const Topology& topology,
                            const RoutingFunction& routing,
                            const RoutingFunction* escape,
                            const AnalyzeOptions& options,
                            ThreadPool* pool) const {
  std::optional<PortDepGraph> graph;
  const auto build = [&]() -> const PortDepGraph& {
    return graph ? *graph : graph.emplace(build_dep_graph_fast(routing, pool));
  };
  AnalyzeReport report;
  report.topology = topology.family();
  report.routing = routing.name();
  report.nodes = topology.node_count();
  report.ports = topology.port_count();
  AnalyzeContext ctx(spec, topology, routing, escape, options, report, build);
  run(ctx);
  return report;
}

AnalyzeReport Analyzer::run(const InstanceSpec& spec,
                            AnalysisArtifacts& artifacts,
                            const AnalyzeOptions& options,
                            ThreadPool* pool) const {
  AnalyzeReport report;
  const ModelFacts& facts = artifacts.facts();
  report.topology = facts.family;
  report.routing = facts.routing;
  report.nodes = facts.nodes;
  report.ports = facts.ports;
  AnalyzeContext ctx(spec, artifacts, options, report,
                     [&]() -> const PortDepGraph& {
                       return artifacts.dep_graph(false, pool);
                     });
  run(ctx);
  return report;
}

void Analyzer::run(AnalyzeContext& ctx) const {
  obs::TraceSpan run_span("analyze");
  Stopwatch timer;

  AnalyzeReport& report = ctx.report;
  report.instance = display_name(ctx.spec);
  report.spec = to_spec_string(ctx.spec);
  report.rules.reserve(rules_.size());
  for (const AnalysisRule* rule : rules_) {
    obs::TraceSpan rule_span(rule->name());
    Stopwatch rule_timer;
    CpuStopwatch rule_cpu;
    StageStats stats = rule->run(ctx);
    stats.wall_ms = rule_timer.elapsed_ms();
    stats.cpu_ms = rule_cpu.elapsed_ms();
    report.checks += stats.checks;
    report.rules.push_back(std::move(stats));
  }
  report.wall_ms = timer.elapsed_ms();

  {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    static obs::Counter& runs = metrics.counter("analyze.runs");
    static obs::Counter& rules_run = metrics.counter("analyze.rules_run");
    static obs::Counter& checks = metrics.counter("analyze.checks");
    static obs::Counter& findings = metrics.counter("analyze.findings");
    runs.add(1);
    checks.add(report.checks);
    findings.add(report.findings());
    std::uint64_t ran = 0;
    for (const StageStats& stats : report.rules) {
      ran += stats.ran ? 1 : 0;
    }
    rules_run.add(ran);
  }
}

}  // namespace genoc
