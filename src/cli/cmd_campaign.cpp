/// \file cmd_campaign.cpp
/// \brief `genoc campaign` — the fault-injection campaign engine: enumerate
///        link-failure variants of a base instance, screen each through the
///        cheap analyzer rules (stable diagnostic codes), verify the
///        survivors against one batch-shared artifact store.
///
/// Exit codes: 0 = every verified variant deadlock-free, 1 = some verified
/// variant deadlocks, 2 = usage (bad instance, malformed --faults, a
/// non-grid or pre-faulted base).
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "campaign/campaign.hpp"
#include "cli/campaign_json.hpp"
#include "cli/commands.hpp"
#include "instance/registry.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace genoc::cli {

namespace {

constexpr const char* kUsage =
    "Usage: genoc campaign [options]\n"
    "  --instance X   base instance: a registered grid preset (see `genoc\n"
    "                 list`) or an ad-hoc spec (\"topology=mesh size=8x8\n"
    "                 routing=xy\"); must not itself declare failed=\n"
    "  --faults P     fault plan (default single):\n"
    "                   single            every single-link failure\n"
    "                   double            every unordered link pair\n"
    "                   random:<k>,<seed> one variant of k seeded links\n"
    "  --threads N    worker threads for the variant shard (default 0 =\n"
    "                 hardware concurrency); the report is byte-identical\n"
    "                 at any value\n"
    "  --json F       write the schema-versioned JSON report to F\n"
    "                 (\"-\" = stdout); timing fields included\n"
    "  --trace F      record a Chrome trace-event span trace of the\n"
    "                 campaign to F (default genoc-campaign.trace.json)\n"
    "\n"
    "Each variant runs the spec_sanity/fault_sanity/connectivity pre-screen\n"
    "first; variants with error-severity findings (net-disconnected,\n"
    "sanity-fault-*) are SCREENED on their codes without spending a verify.\n"
    "Survivors verify through the standard pipeline against one shared\n"
    "artifact store — the base dependency graph is built once and each\n"
    "node-uniform variant's graph is derived from it by delta.\n";

}  // namespace

int cmd_campaign(const Args& args) {
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string instance = args.get("instance", "");
  const std::string faults = args.get("faults", "single");
  const std::int64_t threads = args.get_int_in("threads", 0, 0, 4096);
  const bool json_given = args.has("json");
  const std::string json_path = args.get("json", "");
  TraceFlag trace(args, "campaign", "genoc-campaign.trace.json");
  if (const int rc = finish_args(args, kUsage)) {
    return rc;
  }
  if (instance.empty()) {
    std::cerr << "genoc campaign: pass --instance <name|spec>\n\n" << kUsage;
    return 2;
  }

  const Stopwatch total_timer;
  std::string error;
  const std::optional<InstanceSpec> base =
      InstanceRegistry::global().resolve(instance, &error);
  if (!base) {
    std::cerr << "genoc campaign: " << error << "\n";
    return 2;
  }
  if (!base->is_grid()) {
    std::cerr << "genoc campaign: fault campaigns are grid-only; '"
              << instance << "' is a " << base->topology << " instance\n";
    return 2;
  }
  if (!base->failed_links.empty()) {
    std::cerr << "genoc campaign: base instance already declares failed= — "
                 "faults are enumerated by the campaign\n";
    return 2;
  }

  CampaignOptions options;
  const std::optional<FaultPlan> plan = parse_fault_plan(faults, &error);
  if (!plan) {
    std::cerr << "genoc campaign: " << error << "\n\n" << kUsage;
    return 2;
  }
  options.plan = *plan;
  options.threads = static_cast<std::size_t>(threads);
  if (options.plan.kind == FaultPlan::Kind::kRandom) {
    const FaultModel model(*base);
    if (options.plan.count > model.links().size()) {
      std::cerr << "genoc campaign: random plan draws " << options.plan.count
                << " links but '" << instance << "' has only "
                << model.links().size() << "\n";
      return 2;
    }
  }

  if (const int rc = trace.start()) {
    return rc;
  }
  const CampaignReport report = run_campaign(*base, options);
  if (const int rc = trace.finish()) {
    return rc;
  }

  if (json_given) {
    const std::string rendered =
        campaign_report_json(report, total_timer.elapsed_ms());
    if (json_path.empty() || json_path == "-") {
      std::cout << rendered;
    } else {
      std::ofstream out(json_path);
      out << rendered;
      out.flush();
      if (!out) {
        std::cerr << "genoc campaign: cannot write --json file '" << json_path
                  << "'\n";
        return 2;
      }
    }
    return report.any_deadlock() ? 1 : 0;
  }

  std::cout << "Fault campaign over " << report.instance << " (plan "
            << report.plan << "): " << report.links << " links, "
            << report.variants_total << " variants on " << report.threads
            << " threads\n\n";
  Table table({"Outcome", "Variants"});
  table.add_row({"screened", std::to_string(report.screened)});
  table.add_row({"verified deadlock-free",
                 std::to_string(report.deadlock_free)});
  table.add_row({"verified DEADLOCK", std::to_string(report.deadlocked)});
  std::cout << table.render() << "\n";
  if (!report.screen_code_counts.empty()) {
    std::cout << "Screen codes:\n";
    for (const auto& [code, count] : report.screen_code_counts) {
      std::cout << "  " << code << ": " << count << "\n";
    }
  }
  for (const VariantOutcome& out : report.variants) {
    if (!out.screened && !out.deadlock_free) {
      std::cout << "  DEADLOCK failed=" << out.faults << " (" << out.method
                << ")\n";
    }
  }
  std::cout << "Artifact cache: base context built "
            << report.cache.dep_graph.misses << "x, reused "
            << report.cache.dep_graph.hits << "x; "
            << report.wall_ms / 1000.0 << " s wall\n";
  std::cout << (report.any_deadlock()
                    ? "DEADLOCK — " + std::to_string(report.deadlocked) +
                          " verified variants deadlock.\n"
                    : "Every verified variant is deadlock-free (" +
                          std::to_string(report.screened) + " screened).\n");
  return report.any_deadlock() ? 1 : 0;
}

}  // namespace genoc::cli
