#include "campaign/campaign.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "analyze/analyzer.hpp"
#include "instance/batch_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"
#include "verify/pipeline.hpp"

namespace genoc {

namespace {

/// The screening subset: the rules that decide "is this variant worth a
/// verify" in O(ports) — spec-level sanity, fault-set sanity, and
/// connectivity under the failed links. The heavier cheap() rules (turns,
/// uniformity) re-derive per-variant facts the delta machinery already
/// guarantees, and port liveness is the variant topology's own seal, so
/// the campaign skips them.
const Analyzer& screen_analyzer() {
  static const Analyzer analyzer = [] {
    std::string error;
    auto built = Analyzer::from_rule_names(
        {"spec_sanity", "fault_sanity", "connectivity"}, &error);
    GENOC_REQUIRE(built.has_value(), "campaign screen rules: " + error);
    return *built;
  }();
  return analyzer;
}

}  // namespace

CampaignReport run_campaign(const InstanceSpec& base,
                            const CampaignOptions& options) {
  obs::TraceSpan span("campaign");
  Stopwatch timer;
  const FaultModel model(base);  // validates grid / unfaulted / spec
  const std::size_t variant_count = model.variant_count(options.plan);

  CampaignReport report;
  report.instance = display_name(base);
  report.spec = to_spec_string(base);
  report.plan = to_string(options.plan);
  report.links = model.links().size();
  report.variants_total = variant_count;
  report.variants.resize(variant_count);

  BatchRunner pool(options.threads);
  report.threads = pool.thread_count();

  // One store for the whole campaign: the base context (topology, routing,
  // dependency graph, acyclicity verdict and its rank certificate) is
  // settled exactly once, up front and sharded over the pool. Variants of
  // an acyclic base inherit its verdict; those of a cyclic base delta-build
  // from its graph. Either way they read the base as a cache hit.
  ArtifactStore store;
  std::shared_ptr<AnalysisArtifacts> base_artifacts = store.acquire(base);
  {
    obs::TraceSpan base_span("campaign:base");
    base_artifacts->certified_acyclic(&pool);
  }

  const Analyzer& screen = screen_analyzer();
  const VerifyPipeline& pipeline = VerifyPipeline::standard();
  pool.parallel_for(
      variant_count, pool.recommended_grain(variant_count),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          obs::TraceSpan variant_span("campaign:variant");
          Stopwatch variant_timer;
          // Built here, not up front: a double-fault plan has O(links^2)
          // variants, too many specs to hold at once.
          const InstanceSpec vspec = model.variant(options.plan, i);
          VariantOutcome& out = report.variants[i];
          out.faults = join_failed_links(vspec.failed_links);
          if (variant_span.active()) {
            variant_span.set_detail("failed=" + out.faults);
          }
          // Variant artifacts stay LOCAL (a campaign-wide store entry per
          // variant would hold thousands of dead contexts); only the base
          // is shared, through the explicit wiring.
          std::optional<AnalysisArtifacts> artifacts;
          {
            obs::TraceSpan context_span("campaign:variant_context");
            artifacts.emplace(vspec, base_artifacts);
          }
          const AnalyzeReport screen_report =
              screen.run(vspec, *artifacts, options.analyze);
          out.checks = screen_report.checks;
          for (const Diagnostic& diagnostic : screen_report.diagnostics) {
            if (diagnostic.severity == Severity::kError) {
              out.screen_codes.push_back(diagnostic.code);
            }
          }
          std::sort(out.screen_codes.begin(), out.screen_codes.end());
          out.screen_codes.erase(
              std::unique(out.screen_codes.begin(), out.screen_codes.end()),
              out.screen_codes.end());
          if (!out.screen_codes.empty()) {
            // Screened: the variant is structurally broken (shattered
            // network, malformed fault set) — the deadlock question is not
            // worth a verify. Warnings (route-disconnected) do NOT screen:
            // a minimal routing strands traffic at every fault, yet its
            // deadlock verdict on routed traffic stays well-posed.
            out.screened = true;
            out.wall_ms = variant_timer.elapsed_ms();
            continue;
          }
          InstanceVerifyOptions verify_options;  // sequential: the shard
                                                 // parallelism is across
                                                 // variants, not within one
          const VerifyReport verified =
              pipeline.run(vspec, *artifacts, verify_options);
          out.deadlock_free = verified.verdict.deadlock_free;
          out.method = verified.verdict.method;
          out.edges = verified.verdict.edges;
          out.checks += verified.verdict.checks;
          out.wall_ms = variant_timer.elapsed_ms();
        }
      });

  // Sequential aggregation in variant order: counts, the screen-code
  // histogram, and the metric mirrors — all deterministic at any thread
  // count.
  std::map<std::string, std::uint64_t> code_counts;
  for (const VariantOutcome& out : report.variants) {
    if (out.screened) {
      ++report.screened;
      for (const std::string& code : out.screen_codes) {
        ++code_counts[code];
      }
    } else {
      ++report.verified;
      ++(out.deadlock_free ? report.deadlock_free : report.deadlocked);
    }
  }
  report.screen_code_counts.assign(code_counts.begin(), code_counts.end());
  report.cache = store.stats();
  report.wall_ms = timer.elapsed_ms();

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("campaign.variants").add(report.variants_total);
  metrics.counter("campaign.screened").add(report.screened);
  metrics.counter("campaign.verified").add(report.verified);
  metrics.counter("campaign.deadlocked").add(report.deadlocked);
  return report;
}

}  // namespace genoc
