/// \file cmd_verify.cpp
/// \brief `genoc verify` — the paper's verification pipeline (Fig. 2).
///
/// Three modes:
///   (default)        the classic parametric-HERMES obligation suite with
///                    the Table-I-shaped effort report; its deadlock rows
///                    read one VerifyPipeline run over the context of
///                    `topology=mesh size=WxH routing=xy` (--constraints
///                    on), so it decides the way --instance does;
///   --instance X     one registered instance (or ad-hoc key=value spec)
///                    through the VerifyPipeline (Theorem-1 / escape-lane
///                    stages over the shared artifact cache);
///   --all            every registered instance, verified on the shared
///                    BatchRunner pool with batch-wide artifact reuse, as a
///                    per-instance matrix report.
///
/// Instance-mode JSON reports are schema-versioned (schema_version) and
/// carry the pipeline's typed output: per-stage stats, Diagnostics,
/// artifact-cache counters and the process MetricsRegistry snapshot.
/// `--baseline prev.json` appends a trend section comparing verdicts and
/// wall_ms against a previous run's artifact (v1 to v3) and fails (exit 1)
/// on any verdict regression. `--trace F` records a Chrome trace-event
/// span trace of the whole sweep — one merged file even under --all.
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "cli/analyze_json.hpp"
#include "cli/commands.hpp"
#include "cli/json_reader.hpp"
#include "cli/json_writer.hpp"
#include "cli/verify_json.hpp"
#include "core/obligations.hpp"
#include "instance/batch_runner.hpp"
#include "instance/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "verify/pipeline.hpp"

namespace genoc::cli {

namespace {

constexpr const char* kUsage =
    "Usage: genoc verify [options]\n"
    "Classic HERMES mode (no --instance/--all):\n"
    "  --width N      mesh width (default 4)\n"
    "  --height N     mesh height (default 4)\n"
    "  --buffers N    buffers per port (default 2)\n"
    "  --workloads N  simulated workloads for the Swh/CorrThm rows (default 3)\n"
    "  --messages N   messages per workload (default 24)\n"
    "  --seed N       traffic RNG seed (default 2010)\n"
    "Instance mode:\n"
    "  --instance X   verify a registered instance (see `genoc list`) or an\n"
    "                 ad-hoc spec: \"topology=torus size=16x16 routing=odd_even\"\n"
    "  --all          verify every registered instance (matrix report)\n"
    "  --heavy        include presets tagged heavy in --all (`genoc list`\n"
    "                 marks them; mesh256-xy today)\n"
    "  --threads N    BatchRunner threads (default 0 = hardware concurrency)\n"
    "  --sequential   disable the parallel BatchRunner\n"
    "  --constraints  additionally discharge (C-1)/(C-2) per instance\n"
    "  --stages A,B   run only the named check stages, in order (see\n"
    "                 `genoc list --checks`); naming 'constraints' implies\n"
    "                 --constraints; without a deciding stage the verdict\n"
    "                 is reported as 'undecided' (exit 1)\n"
    "  --baseline F   compare verdicts/wall_ms against a previous\n"
    "                 `verify ... --json` artifact F (schema v1 or v2);\n"
    "                 any verdict regression fails the run (exit 1)\n"
    "  --trace F      record a Chrome trace-event span trace of the verify\n"
    "                 sweep to F (default genoc.trace.json) — load it in\n"
    "                 Perfetto or chrome://tracing; --all merges the whole\n"
    "                 sweep into the one file\n"
    "  --no-analyze   skip the static-analyzer pre-screen (the cheap\n"
    "                 `genoc analyze` rules run per instance by default and\n"
    "                 attach their diagnostics to the report)\n"
    "Common:\n"
    "  --json         emit a JSON report on stdout instead of the table\n";

/// json_array() takes pre-serialized elements; this wraps raw strings.
std::string json_string_array(const std::vector<std::string>& strings) {
  std::vector<std::string> elements;
  elements.reserve(strings.size());
  for (const std::string& s : strings) {
    elements.push_back("\"" + json_escape(s) + "\"");
  }
  return json_array(elements);
}

std::string paper_column(const PaperEffortRow& ref) {
  return std::to_string(ref.lines) + "/" + std::to_string(ref.theorems) + "/" +
         std::to_string(ref.cpu_minutes);
}

std::string verdict_word(const InstanceVerdict& verdict) {
  if (verdict.deadlock_free) {
    return "DEADLOCK-FREE";
  }
  if (verdict.method == "undecided") {
    return "UNDECIDED";
  }
  if (!verdict.constraints_ok) {
    return "CONSTRAINT-VIOLATED";
  }
  // Negative fixtures (expect=deadlock) REGISTER the deadlock: finding the
  // cycle is the pass, so the row says so instead of looking like a failure.
  return verdict.expected_deadlock_free ? "DEADLOCK-PRONE"
                                        : "DEADLOCK-PRONE (expected)";
}

/// One baseline row parsed out of a previous run's JSON artifact.
struct BaselineRow {
  bool deadlock_free = false;
  /// Artifacts predating the expectation field carry only positive
  /// fixtures, so defaulting to "expected free" keeps them comparable.
  bool expected_deadlock_free = true;
  bool constraints_ok = true;
  /// Wall-clock ms. Schema-v1 artifacts named this figure cpu_ms (the old
  /// field held steady_clock time); load_baseline maps it over.
  double wall_ms = 0.0;

  bool as_expected() const {
    return deadlock_free == expected_deadlock_free;
  }
};

/// The verdict trend against a previous artifact.
struct BaselineComparison {
  std::string file;
  std::size_t compared = 0;
  std::vector<std::string> regressions;   ///< verdict went free -> not free
  std::vector<std::string> improvements;  ///< verdict went not free -> free
  std::vector<std::string> added;         ///< not in the baseline
  std::vector<std::string> removed;       ///< in the baseline, not in this run
  double wall_ms_before = 0.0;
  double wall_ms_now = 0.0;
  std::vector<std::string> rows_json;     ///< per-instance trend rows

  /// The documented failure condition: a verdict that regressed. Instances
  /// merely absent from this run (comparing a single-instance run against
  /// an --all artifact) are reported as `removed` but do not fail it.
  bool failed() const { return !regressions.empty(); }
};

/// Loads and validates a previous `verify --json` artifact. Returns nullopt
/// with a complaint on unreadable files, malformed JSON, a schema_version
/// this build does not speak, or a pipeline configuration (stage selection,
/// --constraints) differing from this run's — comparing a partial-pipeline
/// artifact against a full one would flag every instance as a spurious
/// regression.
std::optional<std::map<std::string, BaselineRow>> load_baseline(
    const std::string& path, const std::vector<std::string>& stage_names,
    bool run_constraints, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read baseline file '" + path + "'";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  const std::optional<JsonValue> doc =
      JsonValue::parse(buffer.str(), &parse_error);
  if (!doc || !doc->is_object()) {
    *error = "baseline '" + path + "' is not valid JSON" +
             (parse_error.empty() ? "" : ": " + parse_error);
    return std::nullopt;
  }
  // Every schema so far stays comparable: the verdict fields are identical
  // (v3 only dropped a cache counter), and the v1 cpu_ms column WAS
  // wall-clock time, so it maps onto wall_ms below.
  const std::optional<double> schema = doc->get_number("schema_version");
  const std::int64_t schema_version =
      schema ? static_cast<std::int64_t>(*schema) : -1;
  if (schema_version < 1 || schema_version > VerifyReport::kSchemaVersion) {
    *error = "baseline '" + path + "' has schema_version " +
             (schema ? std::to_string(schema_version)
                     : std::string("<missing>")) +
             "; this build speaks 1 to " +
             std::to_string(VerifyReport::kSchemaVersion);
    return std::nullopt;
  }
  const JsonValue* stages = doc->find("stages");
  std::vector<std::string> baseline_stages;
  if (stages != nullptr && stages->is_array()) {
    for (const JsonValue& name : stages->as_array()) {
      if (name.is_string()) {
        baseline_stages.push_back(name.as_string());
      }
    }
  }
  if (baseline_stages != stage_names) {
    *error = "baseline '" + path +
             "' was produced by a different stage selection";
    for (const std::string& name : baseline_stages) {
      *error += " " + name;
    }
    *error += " — verdicts are not comparable across pipelines (rerun the "
              "baseline with the same --stages)";
    return std::nullopt;
  }
  // Same guard for --constraints: the stage is always listed but self-skips
  // without the opt-in, so the stage list alone cannot tell the runs apart.
  if (doc->get_bool("constraints").value_or(false) != run_constraints) {
    *error = "baseline '" + path + "' was produced with" +
             (run_constraints ? "out" : "") +
             " --constraints and this run " +
             (run_constraints ? "discharges" : "skips") +
             " them — verdicts are not comparable (rerun the baseline with "
             "the same options)";
    return std::nullopt;
  }
  const JsonValue* instances = doc->find("instances");
  if (instances == nullptr || !instances->is_array()) {
    *error = "baseline '" + path + "' has no \"instances\" array";
    return std::nullopt;
  }
  std::map<std::string, BaselineRow> rows;
  for (const JsonValue& row : instances->as_array()) {
    if (!row.is_object()) {
      continue;
    }
    const std::optional<std::string> name = row.get_string("instance");
    const std::optional<bool> free = row.get_bool("deadlock_free");
    if (!name || !free) {
      *error = "baseline '" + path +
               "' row missing instance/deadlock_free fields";
      return std::nullopt;
    }
    BaselineRow entry;
    entry.deadlock_free = *free;
    entry.expected_deadlock_free =
        row.get_bool("expected_deadlock_free").value_or(true);
    entry.constraints_ok = row.get_bool("constraints_ok").value_or(true);
    // v2 and v3 rows carry wall_ms; in v1 rows cpu_ms held wall time.
    entry.wall_ms = row.get_number("wall_ms")
                        .value_or(row.get_number("cpu_ms").value_or(0.0));
    rows[*name] = entry;
  }
  return rows;
}

BaselineComparison compare_against_baseline(
    const std::vector<VerifyReport>& reports,
    const std::map<std::string, BaselineRow>& baseline,
    const std::string& file) {
  BaselineComparison trend;
  trend.file = file;
  std::map<std::string, bool> seen;
  for (const VerifyReport& report : reports) {
    const InstanceVerdict& verdict = report.verdict;
    const auto it = baseline.find(verdict.instance);
    if (it == baseline.end()) {
      trend.added.push_back(verdict.instance);
      continue;
    }
    seen[verdict.instance] = true;
    ++trend.compared;
    const BaselineRow& before = it->second;
    // "ok" means the verdict matches the registered expectation: a negative
    // fixture regressing is it silently becoming deadlock-free.
    const bool was_ok = before.as_expected() && before.constraints_ok;
    const bool now_ok = verdict.as_expected() && verdict.constraints_ok;
    if (was_ok && !now_ok) {
      trend.regressions.push_back(verdict.instance);
    } else if (!was_ok && now_ok) {
      trend.improvements.push_back(verdict.instance);
    }
    trend.wall_ms_before += before.wall_ms;
    trend.wall_ms_now += verdict.wall_ms;
    JsonObject row;
    row.add("instance", verdict.instance)
        .add("deadlock_free_before", before.deadlock_free)
        .add("deadlock_free_now", verdict.deadlock_free)
        .add("constraints_ok_before", before.constraints_ok)
        .add("constraints_ok_now", verdict.constraints_ok)
        .add("wall_ms_before", before.wall_ms)
        .add("wall_ms_now", verdict.wall_ms)
        .add("wall_ms_delta", verdict.wall_ms - before.wall_ms);
    trend.rows_json.push_back(row.to_string());
  }
  for (const auto& [name, row] : baseline) {
    if (!seen.count(name)) {
      trend.removed.push_back(name);
    }
  }
  return trend;
}

std::string baseline_json(const BaselineComparison& trend) {
  JsonObject obj;
  obj.add("file", trend.file)
      .add("instances_compared", static_cast<std::uint64_t>(trend.compared))
      .add("verdict_regression", trend.failed())
      .add_raw("regressions", json_string_array(trend.regressions))
      .add_raw("improvements", json_string_array(trend.improvements))
      .add_raw("added", json_string_array(trend.added))
      .add_raw("removed", json_string_array(trend.removed))
      .add("wall_ms_before", trend.wall_ms_before)
      .add("wall_ms_now", trend.wall_ms_now)
      .add("wall_ms_delta", trend.wall_ms_now - trend.wall_ms_before)
      .add_raw("rows", json_array(trend.rows_json));
  return obj.to_string();
}

void print_baseline_table(const BaselineComparison& trend) {
  std::cout << "Trend vs baseline " << trend.file << ": " << trend.compared
            << " instances compared, " << trend.regressions.size()
            << " verdict regressions, " << trend.improvements.size()
            << " improvements, wall " << format_double(trend.wall_ms_before, 1)
            << " -> " << format_double(trend.wall_ms_now, 1) << " ms\n";
  for (const std::string& name : trend.regressions) {
    std::cout << "  REGRESSION: " << name
              << " was verified in the baseline and is not anymore\n";
  }
  for (const std::string& name : trend.removed) {
    std::cout << "  not compared: " << name
              << " is in the baseline but not in this run\n";
  }
  for (const std::string& name : trend.added) {
    std::cout << "  new instance: " << name << " (not in the baseline)\n";
  }
  std::cout << "\n";
}

/// Wall-clock split of one instance-mode run: the analyzer pre-screen
/// (context construction included — the verify reuses those contexts), and
/// everything from argument resolution to the report.
struct RunWall {
  double prescreen_ms = 0.0;
  double total_ms = 0.0;
};

int report_instances(const std::vector<VerifyReport>& reports,
                     const VerifyPipeline& pipeline, bool constraints,
                     const ArtifactCacheStats& cache,
                     const std::vector<AnalyzeReport>& analyses, bool as_json,
                     const std::string& mode, std::size_t threads,
                     const RunWall& wall,
                     const std::optional<BaselineComparison>& trend) {
  bool all_free = true;
  bool all_expected = true;
  std::size_t expected_prone = 0;
  for (const VerifyReport& report : reports) {
    all_free = all_free && report.verdict.deadlock_free &&
               report.verdict.constraints_ok;
    all_expected = all_expected && report.verdict.as_expected() &&
                   report.verdict.constraints_ok;
    if (!report.verdict.expected_deadlock_free) {
      ++expected_prone;
    }
  }
  const bool trend_failed = trend.has_value() && trend->failed();

  if (as_json) {
    std::vector<std::string> rows;
    rows.reserve(reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      // Pre-screen rows align with reports by construction (both follow
      // the resolved spec order); attach when the analyzer ran.
      rows.push_back(report_json(
          reports[i], i < analyses.size()
                          ? analyze_report_json(analyses[i])
                          : std::string()));
    }
    JsonObject report;
    report.add("command", "verify")
        .add("schema_version", VerifyReport::kSchemaVersion)
        .add("mode", mode)
        .add("threads", static_cast<std::uint64_t>(threads))
        .add_raw("stages", json_string_array(pipeline.stage_names()))
        .add("constraints", constraints)
        .add("instances_total", static_cast<std::uint64_t>(reports.size()))
        .add("analysis_prescreen", !analyses.empty())
        .add("prescreen_wall_ms", wall.prescreen_ms)
        .add("total_wall_ms", wall.total_ms)
        .add("all_deadlock_free", all_free)
        .add("all_as_expected", all_expected)
        .add_raw("cache", cache_stats_json(cache))
        .add_raw("metrics",
                 metrics_json(obs::MetricsRegistry::global().snapshot()))
        .add_raw("instances", json_array(rows));
    if (trend.has_value()) {
      report.add_raw("baseline", baseline_json(*trend));
    }
    std::cout << report.to_string();
    return all_expected && !trend_failed ? 0 : 1;
  }

  Table table({"Instance", "Topology", "Routing", "Switching", "Ports",
               "Dep edges", "Method", "Verdict", "Wall ms"});
  for (const VerifyReport& report : reports) {
    const InstanceVerdict& verdict = report.verdict;
    table.add_row({verdict.instance, verdict.topology, verdict.routing,
                   verdict.switching, format_count(verdict.ports),
                   format_count(verdict.edges), verdict.method,
                   verdict_word(verdict), format_double(verdict.wall_ms, 2)});
  }
  std::cout << "Per-instance deadlock-freedom verification (" << threads
            << " thread" << (threads == 1 ? "" : "s") << ", stages: ";
  const std::vector<std::string> names = pipeline.stage_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << names[i];
  }
  std::cout << "):\n\n" << table.render() << "\n";
  for (const VerifyReport& report : reports) {
    std::cout << "  " << report.verdict.instance << ": "
              << report.verdict.note << "\n";
  }
  // Misses are the meaningful sharing metric (one compute per distinct
  // context); raw hit counts also include intra-pipeline re-reads.
  std::cout << "  artifact cache: " << cache.contexts.misses
            << " distinct contexts for " << reports.size() << " instances — "
            << cache.dep_graph.misses << " graph builds\n";
  if (!analyses.empty()) {
    std::size_t dirty = 0;
    std::uint64_t findings = 0;
    for (const AnalyzeReport& analysis : analyses) {
      dirty += analysis.clean() ? 0 : 1;
      findings += analysis.findings();
    }
    std::cout << "  analyzer pre-screen (" << Analyzer::cheap().rule_names().size()
              << " cheap rules): " << analyses.size() - dirty << "/"
              << analyses.size() << " instances clean";
    if (dirty != 0) {
      std::cout << ", " << findings << " findings:";
    }
    std::cout << "\n";
    for (const AnalyzeReport& analysis : analyses) {
      for (const Diagnostic& diagnostic : analysis.diagnostics) {
        if (diagnostic.severity == Severity::kInfo) {
          continue;
        }
        std::cout << "    " << analysis.instance << ": ["
                  << severity_name(diagnostic.severity) << "/"
                  << diagnostic.code << "] " << diagnostic.message << "\n";
      }
    }
  }
  std::cout << "  wall: analyzer pre-screen "
            << format_double(wall.prescreen_ms, 1) << " ms of "
            << format_double(wall.total_ms, 1) << " ms total\n";
  std::cout << "\n";
  if (trend.has_value()) {
    print_baseline_table(*trend);
  }
  if (all_free) {
    std::cout << "Every instance verified deadlock-free.\n";
  } else if (all_expected) {
    std::cout << "Every instance matches its registered verdict ("
              << expected_prone << " expected deadlock-prone).\n";
  } else {
    std::cout << "INSTANCE NOT VERIFIED — see the rows above.\n";
  }
  return all_expected && !trend_failed ? 0 : 1;
}

int run_instance_mode(const std::string& instance, bool all, bool heavy,
                      bool sequential, std::size_t threads, bool constraints,
                      bool stages_given, const std::string& stages,
                      const std::string& baseline_path,
                      TraceFlag& trace, bool no_analyze,
                      bool as_json) {
  const Stopwatch total_timer;
  const InstanceRegistry& registry = InstanceRegistry::global();
  std::vector<InstanceSpec> specs;
  if (all) {
    specs = heavy ? registry.presets() : registry.sweep_presets();
  } else {
    std::string error;
    const std::optional<InstanceSpec> spec = registry.resolve(instance, &error);
    if (!spec) {
      std::cerr << "genoc verify: " << error << "\n";
      return 2;
    }
    specs.push_back(*spec);
  }

  const VerifyPipeline* pipeline = &VerifyPipeline::standard();
  std::optional<VerifyPipeline> custom;
  // Keyed off the flag's presence, not the value: `--stages=` must hit the
  // empty-selection error below, not silently run the full pipeline.
  bool run_constraints = constraints;
  if (stages_given) {
    std::string error;
    custom = VerifyPipeline::from_stage_names(split_selection(stages), &error);
    if (!custom) {
      std::cerr << "genoc verify: " << error << "\n";
      return 2;
    }
    pipeline = &*custom;
    // Explicitly selecting the constraints stage IS the opt-in: a user who
    // typed `--stages ...,constraints` wants (C-1)/(C-2) discharged, not a
    // silently skipped stage.
    for (const std::string& name : pipeline->stage_names()) {
      run_constraints = run_constraints || name == "constraints";
    }
  }

  std::map<std::string, BaselineRow> baseline;
  if (!baseline_path.empty()) {
    std::string error;
    const auto loaded = load_baseline(baseline_path, pipeline->stage_names(),
                                      run_constraints, &error);
    if (!loaded) {
      std::cerr << "genoc verify: " << error << "\n";
      return 2;
    }
    baseline = *loaded;
  }

  if (const int rc = trace.start()) {
    return rc;
  }

  InstanceVerifyOptions options;
  options.check_constraints = run_constraints;
  // The batch-wide artifact store: every distinct topology x routing x
  // escape prefix in the sweep is analyzed exactly once; the CLI report
  // surfaces the cache counters so the reuse is visible.
  ArtifactStore store;
  options.artifacts = &store;

  std::optional<BatchRunner> runner;
  if (!sequential) {
    runner.emplace(threads);
  }

  // The analyzer pre-screen: the cheap static rules run FIRST, per
  // instance, so a structurally broken model variant surfaces typed
  // diagnostics before any verify effort is spent on it. Warms the same
  // store the pipeline reads, so no artifact is built twice (`turns`
  // builds the dependency graph the pipeline then takes from the cache),
  // and shards over the same pool the verify uses.
  std::vector<AnalyzeReport> analyses;
  RunWall wall;
  if (!no_analyze) {
    obs::TraceSpan analyze_span("verify_prescreen");
    const Stopwatch prescreen_timer;
    const Analyzer& analyzer = Analyzer::cheap();
    analyses.reserve(specs.size());
    for (const InstanceSpec& spec : specs) {
      analyses.push_back(analyzer.run(spec, *store.acquire(spec), {},
                                      runner ? &*runner : nullptr));
    }
    wall.prescreen_ms = prescreen_timer.elapsed_ms();
  }
  std::vector<VerifyReport> reports;
  {
    // The root span: everything the sweep does — instance construction,
    // artifact computes, pipeline stages, pool chunks — nests under it.
    obs::TraceSpan root_span("verify");
    reports = verify_instance_reports(specs, *pipeline,
                                      runner ? &*runner : nullptr, options);
  }

  if (const int rc = trace.finish()) {
    return rc;
  }

  std::optional<BaselineComparison> trend;
  if (!baseline_path.empty()) {
    trend = compare_against_baseline(reports, baseline, baseline_path);
  }
  wall.total_ms = total_timer.elapsed_ms();
  return report_instances(reports, *pipeline, run_constraints, store.stats(),
                          analyses, as_json, all ? "all" : "instance",
                          runner ? runner->thread_count() : 1, wall, trend);
}

int run_hermes_mode(std::int32_t width, std::int32_t height,
                    std::size_t buffers, const ObligationOptions& options,
                    bool as_json) {
  const HermesInstance hermes(width, height, buffers);
  const ObligationSuite suite = run_hermes_obligations(hermes, options);
  const ObligationRow overall = suite.overall();

  if (as_json) {
    std::vector<std::string> rows;
    for (const ObligationRow& row : suite.rows) {
      JsonObject obj;
      obj.add("label", row.label)
          .add("checks", static_cast<std::uint64_t>(row.checks))
          .add("properties", static_cast<std::uint64_t>(row.properties))
          .add("cpu_ms", row.cpu_ms)
          .add("satisfied", row.satisfied)
          .add("note", row.note);
      rows.push_back(obj.to_string());
    }
    JsonObject report;
    report.add("command", "verify")
        .add("schema_version", VerifyReport::kSchemaVersion)
        .add("mode", "hermes")
        .add("width", static_cast<std::int64_t>(width))
        .add("height", static_cast<std::int64_t>(height))
        .add("buffers_per_port", static_cast<std::uint64_t>(buffers))
        .add("all_satisfied", suite.all_satisfied())
        .add("total_checks", static_cast<std::uint64_t>(overall.checks))
        .add("total_cpu_ms", overall.cpu_ms)
        .add_raw("rows", json_array(rows));
    std::cout << report.to_string();
    return suite.all_satisfied() ? 0 : 1;
  }

  std::cout << "Discharging the HERMES proof obligations on a " << width << "x"
            << height << " mesh (" << buffers << " buffers/port)\n\n";
  Table table({"Obligation", "Checks", "Props", "CPU ms", "Status",
               "Paper: Lines/Thms/CPUmin"});
  const auto& paper = paper_table1();
  for (std::size_t i = 0; i < suite.rows.size(); ++i) {
    const ObligationRow& row = suite.rows[i];
    table.add_row({row.label, format_count(row.checks),
                   std::to_string(row.properties), format_double(row.cpu_ms, 2),
                   row.satisfied ? "DISCHARGED" : "VIOLATED",
                   i < paper.size() - 1 ? paper_column(paper[i]) : "-"});
  }
  table.add_separator();
  table.add_row({overall.label, format_count(overall.checks),
                 std::to_string(overall.properties),
                 format_double(overall.cpu_ms, 2),
                 overall.satisfied ? "DISCHARGED" : "VIOLATED",
                 paper_column(paper.back())});
  std::cout << table.render() << "\n";
  for (const ObligationRow& row : suite.rows) {
    std::cout << "  " << row.label << ": " << row.note << "\n";
  }
  std::cout << "\n"
            << (suite.all_satisfied()
                    ? "All obligations discharged: this instance satisfies "
                      "CorrThm, DeadThm and EvacThm."
                    : "OBLIGATION VIOLATED — see the rows above.")
            << "\n";
  return suite.all_satisfied() ? 0 : 1;
}

}  // namespace

int cmd_verify(const Args& args) {
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const auto width =
      static_cast<std::int32_t>(args.get_int_in("width", 4, 2, 512));
  const auto height =
      static_cast<std::int32_t>(args.get_int_in("height", 4, 2, 512));
  const auto buffers =
      static_cast<std::size_t>(args.get_int_in("buffers", 2, 1, 64));
  ObligationOptions options;
  options.workloads =
      static_cast<std::size_t>(args.get_int_in("workloads", 3, 1, 1000));
  options.messages_per_workload =
      static_cast<std::size_t>(args.get_int_in("messages", 24, 1, 100000));
  // Range-checked like every integer flag: a negative or garbage seed must
  // exit 2, not wrap around into a silently different workload.
  options.seed = static_cast<std::uint64_t>(args.get_int_in(
      "seed", 2010, 0, std::numeric_limits<std::int64_t>::max()));
  const std::string instance = args.get("instance", "");
  const bool all = args.has("all");
  const auto threads =
      static_cast<std::size_t>(args.get_int_in("threads", 0, 0, 256));
  const bool sequential = args.has("sequential");
  const bool constraints = args.has("constraints");
  const bool heavy = args.has("heavy");
  const std::string stages = args.get("stages", "");
  const std::string baseline_path = args.get("baseline", "");
  const bool no_analyze = args.has("no-analyze");
  TraceFlag trace(args, "verify", "genoc.trace.json");
  const bool as_json = args.has("json");
  if (const int rc = finish_args(args, kUsage)) {
    return rc;
  }
  // Flags are mode-specific; a flag from the other mode parses fine but
  // would silently do nothing, so call it out.
  const bool instance_mode = all || !instance.empty();
  const char* classic_flags[] = {"width",   "height",    "buffers",
                                 "workloads", "messages", "seed"};
  const char* instance_flags[] = {"threads", "sequential", "constraints",
                                  "heavy",   "stages",     "baseline",
                                  "trace",   "no-analyze"};
  if (instance_mode) {
    for (const char* flag : classic_flags) {
      if (args.has(flag)) {
        std::cerr << "genoc verify: --" << flag
                  << " only applies to the classic HERMES mode and is "
                     "ignored with --instance/--all (instance dimensions "
                     "come from the spec)\n";
      }
    }
  } else {
    for (const char* flag : instance_flags) {
      if (args.has(flag)) {
        std::cerr << "genoc verify: --" << flag
                  << " only applies with --instance/--all and is ignored "
                     "in the classic HERMES mode\n";
      }
    }
  }
  if (instance_mode) {
    return run_instance_mode(instance, all, heavy, sequential, threads,
                             constraints, args.has("stages"), stages,
                             baseline_path, trace, no_analyze, as_json);
  }
  return run_hermes_mode(width, height, buffers, options, as_json);
}

}  // namespace genoc::cli
