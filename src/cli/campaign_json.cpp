#include "cli/campaign_json.hpp"

#include <vector>

#include "cli/json_writer.hpp"
#include "cli/verify_json.hpp"
#include "obs/metrics.hpp"

namespace genoc::cli {

namespace {

std::string variant_json(const genoc::VariantOutcome& out,
                         bool include_timing) {
  std::vector<std::string> codes;
  codes.reserve(out.screen_codes.size());
  for (const std::string& code : out.screen_codes) {
    codes.push_back("\"" + json_escape(code) + "\"");
  }
  JsonObject obj;
  obj.add("faults", out.faults)
      .add("screened", out.screened)
      .add_raw("codes", json_array(codes))
      .add("deadlock_free", out.deadlock_free)
      .add("method", out.method)
      .add("edges", static_cast<std::uint64_t>(out.edges))
      .add("checks", out.checks);
  if (include_timing) {
    obj.add("wall_ms", out.wall_ms);
  }
  return obj.to_string();
}

}  // namespace

std::string campaign_report_json(const genoc::CampaignReport& report,
                                 std::optional<double> total_wall_ms) {
  const bool include_timing = total_wall_ms.has_value();
  JsonObject codes;
  for (const auto& [code, count] : report.screen_code_counts) {
    codes.add(code, count);
  }
  std::vector<std::string> variants;
  variants.reserve(report.variants.size());
  for (const genoc::VariantOutcome& out : report.variants) {
    variants.push_back(variant_json(out, include_timing));
  }
  JsonObject obj;
  obj.add("command", "campaign")
      .add("schema_version", genoc::CampaignReport::kSchemaVersion)
      .add("instance", report.instance)
      .add("spec", report.spec)
      .add("plan", report.plan)
      .add("links", static_cast<std::uint64_t>(report.links))
      .add("variants_total", static_cast<std::uint64_t>(report.variants_total))
      .add("screened", static_cast<std::uint64_t>(report.screened))
      .add("verified", static_cast<std::uint64_t>(report.verified))
      .add("deadlock_free", static_cast<std::uint64_t>(report.deadlock_free))
      .add("deadlocked", static_cast<std::uint64_t>(report.deadlocked))
      .add("any_deadlock", report.any_deadlock())
      .add_raw("screen_codes", codes.to_string())
      .add_raw("cache", cache_stats_json(report.cache))
      .add_raw("variants", json_array(variants));
  if (include_timing) {
    obj.add("threads", static_cast<std::uint64_t>(report.threads))
        .add("wall_ms", report.wall_ms)
        .add("total_wall_ms", *total_wall_ms)
        .add_raw("metrics",
                 metrics_json(genoc::obs::MetricsRegistry::global().snapshot()));
  }
  return obj.to_string();
}

}  // namespace genoc::cli
