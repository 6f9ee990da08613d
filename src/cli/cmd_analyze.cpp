/// \file cmd_analyze.cpp
/// \brief `genoc analyze` — the static model analyzer: rule-based lints
///        over an instance's model constituents (routing totality, the
///        node-uniformity claim, turn-model conformance, escape coverage,
///        spec sanity, fault sets), with stable diagnostic codes. Port
///        liveness needs no rule: the topology seal proves it.
///
/// The fault-campaign front door: where `genoc verify` DECIDES deadlock
/// freedom, `analyze` rejects broken model variants for milliseconds
/// before a verify is spent on them. Exit codes: 0 = every analyzed
/// instance clean, 1 = findings, 2 = usage (unknown/duplicate/empty
/// --rules selection, bad instance), mirroring `verify --stages`.
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "cli/analyze_json.hpp"
#include "cli/commands.hpp"
#include "cli/json_writer.hpp"
#include "cli/verify_json.hpp"
#include "instance/registry.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "verify/artifacts.hpp"

namespace genoc::cli {

namespace {

constexpr const char* kUsage =
    "Usage: genoc analyze [options]\n"
    "  --instance X   analyze a registered instance (see `genoc list`) or an\n"
    "                 ad-hoc spec: \"topology=torus size=16x16 routing=odd_even\"\n"
    "  --all          analyze every registered instance (heavy presets\n"
    "                 included: rules are budget-bounded)\n"
    "  --rules A,B    run only the named analysis rules, in order (see\n"
    "                 `genoc list --rules`); unknown, duplicate or empty\n"
    "                 selections exit 2\n"
    "  --json         emit the schema-versioned JSON report on stdout\n"
    "\n"
    "Rules lint the model constituents statically — no simulation, no SCC\n"
    "decision — and emit typed diagnostics with stable codes; exit 1 when\n"
    "any analyzed instance has a warning/error finding.\n";

std::string json_string_array(const std::vector<std::string>& strings) {
  std::vector<std::string> elements;
  elements.reserve(strings.size());
  for (const std::string& s : strings) {
    elements.push_back("\"" + json_escape(s) + "\"");
  }
  return json_array(elements);
}

int report_analyses(const std::vector<AnalyzeReport>& reports,
                    const Analyzer& analyzer, bool all, bool as_json) {
  bool all_clean = true;
  std::uint64_t findings_total = 0;
  for (const AnalyzeReport& report : reports) {
    all_clean = all_clean && report.clean();
    findings_total += report.findings();
  }

  if (as_json) {
    std::vector<std::string> rows;
    rows.reserve(reports.size());
    for (const AnalyzeReport& report : reports) {
      rows.push_back(analyze_report_json(report));
    }
    JsonObject report;
    report.add("command", "analyze")
        .add("schema_version",
             static_cast<std::int64_t>(AnalyzeReport::kSchemaVersion))
        .add("mode", all ? "all" : "instance")
        .add_raw("rules", json_string_array(analyzer.rule_names()))
        .add("instances_total", static_cast<std::uint64_t>(reports.size()))
        .add("all_clean", all_clean)
        .add("findings_total", findings_total)
        .add_raw("metrics",
                 metrics_json(obs::MetricsRegistry::global().snapshot()))
        .add_raw("instances", json_array(rows));
    std::cout << report.to_string();
    return all_clean ? 0 : 1;
  }

  Table table({"Instance", "Topology", "Routing", "Ports", "Checks",
               "Findings", "Wall ms", "Status"});
  for (const AnalyzeReport& report : reports) {
    table.add_row({report.instance, report.topology, report.routing,
                   format_count(report.ports), format_count(report.checks),
                   std::to_string(report.findings()),
                   format_double(report.wall_ms, 2),
                   report.clean() ? "CLEAN" : "FINDINGS"});
  }
  std::cout << "Static model analysis (rules: ";
  const std::vector<std::string> names = analyzer.rule_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << names[i];
  }
  std::cout << "):\n\n" << table.render() << "\n";
  for (const AnalyzeReport& report : reports) {
    for (const Diagnostic& diagnostic : report.diagnostics) {
      if (diagnostic.severity == Severity::kInfo) {
        continue;
      }
      std::cout << "  " << report.instance << ": ["
                << severity_name(diagnostic.severity) << "/" << diagnostic.code
                << "] " << diagnostic.message << "\n";
    }
  }
  std::cout << (all_clean
                    ? "Every analyzed instance is clean.\n"
                    : "FINDINGS — " + std::to_string(findings_total) +
                          " warning/error diagnostics; see the rows above.\n");
  return all_clean ? 0 : 1;
}

}  // namespace

int cmd_analyze(const Args& args) {
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string instance = args.get("instance", "");
  const bool all = args.has("all");
  const bool rules_given = args.has("rules");
  const std::string rules = args.get("rules", "");
  const bool as_json = args.has("json");
  if (const int rc = finish_args(args, kUsage)) {
    return rc;
  }
  if (!all && instance.empty()) {
    std::cerr << "genoc analyze: pass --instance <name|spec> or --all\n\n"
              << kUsage;
    return 2;
  }

  const InstanceRegistry& registry = InstanceRegistry::global();
  std::vector<InstanceSpec> specs;
  if (all) {
    // The full registry, heavy presets included: the sweeping rules are
    // destination-sampled and `turns` reads the dependency graph, built on
    // the pool below, so even mesh256-xy stays interactive.
    specs = registry.presets();
  } else {
    std::string error;
    const std::optional<InstanceSpec> spec = registry.resolve(instance, &error);
    if (!spec) {
      std::cerr << "genoc analyze: " << error << "\n";
      return 2;
    }
    specs.push_back(*spec);
  }

  const Analyzer* analyzer = &Analyzer::standard();
  std::optional<Analyzer> custom;
  // Keyed off the flag's presence: `--rules=` must hit the empty-selection
  // error, not silently run every rule (the verify --stages contract).
  if (rules_given) {
    std::string error;
    custom = Analyzer::from_rule_names(split_selection(rules), &error);
    if (!custom) {
      std::cerr << "genoc analyze: " << error << "\n";
      return 2;
    }
    analyzer = &*custom;
  }

  // One context per spec, dropped after its report, so peak memory is the
  // largest instance's rather than the sum over the registry. The pool
  // shards the dependency-graph build `turns` reads.
  ThreadPool pool;
  std::vector<AnalyzeReport> reports;
  reports.reserve(specs.size());
  for (const InstanceSpec& spec : specs) {
    AnalysisArtifacts artifacts(spec);
    reports.push_back(analyzer->run(spec, artifacts, {}, &pool));
  }
  return report_analyses(reports, *analyzer, all, as_json);
}

}  // namespace genoc::cli
