#include "cli/verify_json.hpp"

#include <vector>

#include "cli/json_writer.hpp"

namespace genoc::cli {

namespace {

std::string counter_json(const genoc::ArtifactCounter& counter) {
  JsonObject obj;
  obj.add("misses", counter.misses).add("hits", counter.hits);
  return obj.to_string();
}

/// The legacy verdict-row fields, in their pre-pipeline order — the one
/// place the field list lives.
void add_verdict_fields(JsonObject& obj, const genoc::InstanceVerdict& verdict) {
  obj.add("instance", verdict.instance)
      .add("spec", verdict.spec)
      .add("topology", verdict.topology)
      .add("routing", verdict.routing)
      .add("switching", verdict.switching)
      .add("nodes", static_cast<std::uint64_t>(verdict.nodes))
      .add("ports", static_cast<std::uint64_t>(verdict.ports))
      .add("dep_edges", static_cast<std::uint64_t>(verdict.edges))
      .add("deterministic", verdict.deterministic)
      .add("dep_acyclic", verdict.dep_acyclic)
      .add("method", verdict.method)
      .add("deadlock_free", verdict.deadlock_free)
      .add("expected_deadlock_free", verdict.expected_deadlock_free)
      .add("as_expected", verdict.as_expected())
      .add("constraints_ok", verdict.constraints_ok)
      .add("checks", verdict.checks)
      .add("wall_ms", verdict.wall_ms)
      .add("cpu_ms", verdict.cpu_ms)
      .add("max_rss_kb", static_cast<std::int64_t>(verdict.max_rss_kb))
      .add("note", verdict.note);
}

}  // namespace

std::string diagnostic_json(const genoc::Diagnostic& diagnostic) {
  JsonObject witness;
  for (const auto& [key, value] : diagnostic.witness) {
    witness.add(key, value);
  }
  JsonObject obj;
  obj.add("stage", diagnostic.stage)
      .add("severity", severity_name(diagnostic.severity))
      .add("code", diagnostic.code)
      .add("message", diagnostic.message)
      .add_raw("witness", witness.to_string());
  return obj.to_string();
}

std::string stage_stats_json(const genoc::StageStats& stats) {
  JsonObject obj;
  obj.add("stage", stats.stage)
      .add("ran", stats.ran)
      .add("passed", stats.passed)
      .add("skip_reason", stats.skip_reason)
      .add("checks", stats.checks)
      .add("wall_ms", stats.wall_ms)
      .add("cpu_ms", stats.cpu_ms);
  return obj.to_string();
}

std::string cache_stats_json(const genoc::ArtifactCacheStats& stats) {
  JsonObject obj;
  obj.add_raw("contexts", counter_json(stats.contexts))
      .add_raw("dep_graph", counter_json(stats.dep_graph))
      .add_raw("acyclicity", counter_json(stats.acyclicity))
      .add_raw("escape", counter_json(stats.escape))
      .add_raw("constraints", counter_json(stats.constraints));
  return obj.to_string();
}

std::string report_json(const genoc::VerifyReport& report) {
  return report_json(report, std::string());
}

std::string report_json(const genoc::VerifyReport& report,
                        const std::string& analysis_raw) {
  std::vector<std::string> stages;
  stages.reserve(report.stages.size());
  for (const genoc::StageStats& stats : report.stages) {
    stages.push_back(stage_stats_json(stats));
  }
  std::vector<std::string> diagnostics;
  diagnostics.reserve(report.diagnostics.size());
  for (const genoc::Diagnostic& diagnostic : report.diagnostics) {
    diagnostics.push_back(diagnostic_json(diagnostic));
  }
  // The verdict row first (field-compatible with the legacy shape), the
  // typed records appended.
  JsonObject obj;
  add_verdict_fields(obj, report.verdict);
  obj.add_raw("stages", json_array(stages))
      .add_raw("diagnostics", json_array(diagnostics))
      .add_raw("cache", cache_stats_json(report.cache));
  if (!analysis_raw.empty()) {
    obj.add_raw("analysis", analysis_raw);
  }
  return obj.to_string();
}

std::optional<genoc::Diagnostic> diagnostic_from_json(const JsonValue& value,
                                                      std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return std::nullopt;
  };
  if (!value.is_object()) {
    return fail("diagnostic: not a JSON object");
  }
  genoc::Diagnostic diagnostic;
  const std::optional<std::string> stage = value.get_string("stage");
  const std::optional<std::string> severity = value.get_string("severity");
  const std::optional<std::string> code = value.get_string("code");
  const std::optional<std::string> message = value.get_string("message");
  if (!stage || !severity || !code || !message) {
    return fail("diagnostic: missing stage/severity/code/message");
  }
  if (!genoc::parse_severity(*severity, &diagnostic.severity)) {
    return fail("diagnostic: unknown severity '" + *severity + "'");
  }
  diagnostic.stage = *stage;
  diagnostic.code = *code;
  diagnostic.message = *message;
  const JsonValue* witness = value.find("witness");
  if (witness == nullptr || !witness->is_object()) {
    return fail("diagnostic: missing witness object");
  }
  for (const auto& [key, entry] : witness->members()) {
    if (!entry.is_string()) {
      return fail("diagnostic: witness value for '" + key +
                  "' is not a string");
    }
    diagnostic.witness.emplace_back(key, entry.as_string());
  }
  return diagnostic;
}

std::optional<genoc::StageStats> stage_stats_from_json(const JsonValue& value,
                                                       std::string* error) {
  const auto fail = [error](const std::string& what) {
    if (error != nullptr) {
      *error = what;
    }
    return std::nullopt;
  };
  if (!value.is_object()) {
    return fail("stage stats: not a JSON object");
  }
  const std::optional<std::string> stage = value.get_string("stage");
  const std::optional<bool> ran = value.get_bool("ran");
  const std::optional<bool> passed = value.get_bool("passed");
  const std::optional<std::string> skip_reason =
      value.get_string("skip_reason");
  const std::optional<double> checks = value.get_number("checks");
  const std::optional<double> cpu_ms = value.get_number("cpu_ms");
  if (!stage || !ran || !passed || !skip_reason || !checks || !cpu_ms) {
    return fail("stage stats: missing field");
  }
  // wall_ms is absent from schema-v1 rows, where cpu_ms held the wall-clock
  // figure — fall back rather than reject.
  const std::optional<double> wall_ms = value.get_number("wall_ms");
  genoc::StageStats stats;
  stats.stage = *stage;
  stats.ran = *ran;
  stats.passed = *passed;
  stats.skip_reason = *skip_reason;
  stats.checks = static_cast<std::uint64_t>(*checks);
  stats.wall_ms = wall_ms.value_or(*cpu_ms);
  stats.cpu_ms = *cpu_ms;
  return stats;
}

std::string metrics_json(const genoc::obs::MetricsSnapshot& snapshot) {
  JsonObject counters;
  for (const auto& [name, value] : snapshot.counters) {
    counters.add(name, value);
  }
  JsonObject gauges;
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.add(name, value);
  }
  JsonObject histograms;
  for (const auto& [name, hist] : snapshot.histograms) {
    std::vector<std::string> buckets;
    buckets.reserve(hist.buckets.size());
    for (const auto& [bound, count] : hist.buckets) {
      JsonObject bucket;
      bucket.add("le", bound).add("count", count);
      buckets.push_back(bucket.to_string());
    }
    JsonObject entry;
    entry.add("count", hist.count)
        .add("sum", hist.sum)
        .add("max", hist.max)
        .add_raw("buckets", json_array(buckets));
    histograms.add_raw(name, entry.to_string());
  }
  JsonObject obj;
  obj.add_raw("counters", counters.to_string())
      .add_raw("gauges", gauges.to_string())
      .add_raw("histograms", histograms.to_string());
  return obj.to_string();
}

}  // namespace genoc::cli
