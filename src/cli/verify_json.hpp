/// \file verify_json.hpp
/// \brief JSON rendering of the VerifyPipeline's typed output — verdict
///        rows, per-stage stats, Diagnostics, artifact-cache counters — and
///        the inverse parsers backing the Diagnostic round-trip and the
///        `--baseline` trend report.
///
/// Lives in genoc_cli_support (not the driver) so the test suite covers the
/// exact serialization `genoc verify --json` ships; the schema is versioned
/// by VerifyReport::kSchemaVersion, which cmd_verify stamps at the top
/// level and tools/check_verify_schema.py validates in CI.
#pragma once

#include <optional>
#include <string>

#include "cli/json_reader.hpp"
#include "obs/metrics.hpp"
#include "verify/report.hpp"

namespace genoc::cli {

/// One verdict row: the legacy fields, unchanged names and order (tooling
/// compatibility), plus the typed "stages" and "diagnostics" arrays.
std::string report_json(const genoc::VerifyReport& report);

/// Same row with the static analyzer's pre-screen attached as an
/// "analysis" sub-object (an analyze_report_json row). \p analysis_raw is
/// pre-serialized JSON; empty attaches nothing, so `--no-analyze` rows are
/// byte-identical to the overload above (no schema bump: an added field).
std::string report_json(const genoc::VerifyReport& report,
                        const std::string& analysis_raw);

std::string diagnostic_json(const genoc::Diagnostic& diagnostic);
std::string stage_stats_json(const genoc::StageStats& stats);

/// An artifact-cache hit/miss ledger: a row's own `cache`, or the run's
/// top-level totals. The totals are the same at any thread count. The
/// split between rows is not when instances share one context (mesh8-xy
/// and mesh8-xy-sf): a row records what its context's counters did while
/// it ran, so which row takes the misses, and whether a row also counts
/// its twin's concurrent hits, depends on scheduling. The pre-screen runs
/// before any row, so the graph miss of its `turns` rule shows in the
/// top-level totals only.
std::string cache_stats_json(const genoc::ArtifactCacheStats& stats);

/// The `metrics` section of the schema-v2 report: counters and gauges as
/// name -> value maps, histograms as {count, sum, max, buckets: [{le,
/// count}]} objects. Names are pre-sorted by MetricsRegistry::snapshot().
std::string metrics_json(const genoc::obs::MetricsSnapshot& snapshot);

/// Inverse of diagnostic_json: rebuilds the typed record (stage, severity,
/// code, message, witness in document order). Returns nullopt with a
/// message in *error on a malformed or non-object value.
std::optional<genoc::Diagnostic> diagnostic_from_json(const JsonValue& value,
                                                      std::string* error);

/// Inverse of stage_stats_json (cpu_ms round-trips through json_number's
/// shortest-precision doubles).
std::optional<genoc::StageStats> stage_stats_from_json(const JsonValue& value,
                                                       std::string* error);

}  // namespace genoc::cli
