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
  return run(spec, topology, routing, escape, options, build);
}

AnalyzeReport Analyzer::run(
    const InstanceSpec& spec, const Topology& topology,
    const RoutingFunction& routing, const RoutingFunction* escape,
    const AnalyzeOptions& options,
    std::function<const PortDepGraph&()> dep_graph) const {
  obs::TraceSpan run_span("analyze");
  Stopwatch timer;

  AnalyzeReport report;
  report.instance = display_name(spec);
  report.spec = to_spec_string(spec);
  report.topology = topology.family();
  report.routing = routing.name();
  report.nodes = topology.node_count();
  report.ports = topology.port_count();
  report.rules.reserve(rules_.size());

  AnalyzeContext ctx{spec, topology, routing, escape, options, report,
                     std::move(dep_graph)};
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
  return report;
}

AnalyzeReport Analyzer::run(const InstanceSpec& spec,
                            AnalysisArtifacts& artifacts,
                            const AnalyzeOptions& options,
                            ThreadPool* pool) const {
  return run(spec, artifacts.topology(), artifacts.routing(),
             artifacts.escape_routing(), options,
             [&]() -> const PortDepGraph& {
               return artifacts.dep_graph(false, pool);
             });
}

}  // namespace genoc
