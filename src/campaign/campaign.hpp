/// \file campaign.hpp
/// \brief CampaignRunner: the fault-injection campaign engine — enumerate
///        link-failure variants of a base instance, screen each through the
///        cheap analyzer rules, and verify the survivors against one shared
///        artifact store.
///
/// The campaign is the paper's decision procedure applied in bulk: Theorem 1
/// decides each variant from its routing function alone, so a sweep over
/// every single-link failure of a mesh is thousands of cheap static
/// decisions, not thousands of simulations. Four mechanisms keep it cheap:
///
///   1. ANALYZE-FIRST: each variant runs the spec_sanity / fault_sanity /
///      connectivity rule subset first; a variant with an error-severity
///      finding (a shattered network, a duplicate fault) is SCREENED on its
///      stable diagnostic codes without spending a verify. Connectivity
///      costs one short BFS per failed link: the grid stays connected iff
///      each link's endpoints still reach each other.
///   2. BATCH-SHARED ARTIFACTS: one ArtifactStore holds the unfaulted BASE
///      context; its dependency graph and closure are built once, and every
///      variant keeps only a LOCAL artifact cache wired to that base (the
///      store's hit counters make the sharing assertable).
///   3. CLOSED-FORM GRIDS, STREAMED SPECS: a variant's grid comes from
///      Mesh2D's one fill, node by node from each node's boundary mask
///      minus its failed links, with no per-port round trips; the base ids
///      of the removed ports cost four slot lookups per fault
///      (removed_base_ports). Each variant spec is built inside its shard
///      (FaultModel::variant), so a double-fault plan never holds its
///      O(links^2) specs at once.
///   4. INHERITED VERDICTS, DELTA GRAPHS: for link faults on node-uniform
///      routings the variant dependency graph is the base graph's induced
///      subgraph on the surviving ports. Under an acyclic base every
///      variant is acyclic too: it inherits the base's rank-certified
///      verdict and counts its edges from the base's degrees, with no graph
///      and no DFS of its own. Under a cyclic base the variant graph is
///      built by build_dep_graph_delta — filtering the base graph — instead
///      of a per-destination re-sweep; bit-identical to the full builder
///      and an order of magnitude cheaper.
///
/// Variants shard over the existing BatchRunner pool into fixed result
/// slots, so the report is byte-identical at any --threads value (timing
/// fields excluded).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analyze/rule.hpp"
#include "campaign/fault_model.hpp"
#include "verify/artifacts.hpp"

namespace genoc {

struct CampaignOptions {
  FaultPlan plan;
  /// Worker threads for the variant shard (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Budgets for the screening rules (analyzer defaults are fine).
  AnalyzeOptions analyze;
};

/// Outcome of one variant: screened on analyzer codes, or verified through
/// the standard pipeline.
struct VariantOutcome {
  std::string faults;      ///< canonical failed= value of the variant
  bool screened = false;   ///< rejected by the pre-screen; no verify spent
  /// Error-severity diagnostic codes that screened the variant, sorted and
  /// deduplicated (empty for verified variants).
  std::vector<std::string> screen_codes;
  bool deadlock_free = false;  ///< verified variants only
  std::string method;          ///< deciding stage ("Theorem 1 (C-3)", ...)
  std::size_t edges = 0;       ///< variant dependency-graph edges
  std::uint64_t checks = 0;    ///< elementary checks, screen + verify
  double wall_ms = 0.0;        ///< per-variant wall time (timing-only)
};

/// The campaign report `genoc campaign` renders and serializes.
struct CampaignReport {
  /// Version of the `genoc campaign --json` schema
  /// (tools/check_campaign_schema.py speaks exactly this version). v2: the
  /// `cache` object loses its `primed` counter.
  static constexpr std::int64_t kSchemaVersion = 2;

  std::string instance;  ///< base display name (preset name or spec string)
  std::string spec;      ///< canonical base spec string
  std::string plan;      ///< canonical fault plan ("single", "random:3,7")
  std::size_t links = 0;           ///< fabric links of the base
  std::size_t variants_total = 0;  ///< == screened + verified
  std::size_t screened = 0;
  std::size_t verified = 0;
  std::size_t deadlock_free = 0;   ///< of the verified variants
  std::size_t deadlocked = 0;      ///< of the verified variants
  /// Screen-code histogram over all screened variants, sorted by code.
  std::vector<std::pair<std::string, std::uint64_t>> screen_code_counts;
  std::vector<VariantOutcome> variants;  ///< in variant order
  /// The campaign store's ledger: base context misses/hits and the base
  /// dependency graph's and acyclicity verdict's build/reuse counters (the
  /// sharing guarantee tests assert on).
  ArtifactCacheStats cache;
  std::size_t threads = 1;  ///< timing-only (varies with --threads)
  double wall_ms = 0.0;     ///< timing-only

  bool all_accounted() const { return screened + verified == variants_total; }
  bool any_deadlock() const { return deadlocked != 0; }
};

/// Runs the campaign: enumerate, screen, verify. \p base must be a valid
/// unfaulted grid spec (throws ContractViolation otherwise — the CLI
/// validates first and exits 2). Deterministic modulo the timing fields.
CampaignReport run_campaign(const InstanceSpec& base,
                            const CampaignOptions& options);

}  // namespace genoc
