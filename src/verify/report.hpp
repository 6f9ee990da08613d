/// \file report.hpp
/// \brief VerifyReport: the full, schema-versioned output of one pipeline
///        run — the legacy one-row verdict plus everything the free-text
///        fields used to flatten away.
#pragma once

#include <vector>

#include "verify/artifacts.hpp"
#include "verify/diagnostics.hpp"
#include "verify/verdict.hpp"

namespace genoc {

/// Everything one VerifyPipeline::run produced. The JSON rendering
/// (cli/verify_json.hpp) carries kSchemaVersion so downstream tooling (the
/// --baseline trend report, CI validation) can reject artifacts written by
/// an incompatible schema.
struct VerifyReport {
  /// Bump when the JSON shape changes incompatibly: field removals or
  /// renames, semantic changes to existing fields. Additions are
  /// backwards-compatible and do not bump it.
  ///
  /// v2: cpu_ms now reports true CPU time (getrusage roll-up) instead of
  /// wall time; wall_ms carries the steady_clock figure; the top-level
  /// report gains a `metrics` section and the baseline trend compares on
  /// wall_ms. Readers (--baseline) still accept v1 artifacts, mapping
  /// their cpu_ms to wall_ms.
  ///
  /// v3: the `cache` object loses its `primed` counter (the closure has no
  /// eager build to count). --baseline reads only verdicts and walls, so
  /// it accepts v1 to v3.
  static constexpr std::int64_t kSchemaVersion = 3;

  /// The legacy matrix row; method/note are rendered from the diagnostics'
  /// stage decisions, bit-identical to the pre-pipeline verifier.
  InstanceVerdict verdict;
  /// One entry per configured stage, in pipeline order (skipped stages
  /// included, with ran == false and the skip reason).
  std::vector<StageStats> stages;
  /// Typed findings, in emission order.
  std::vector<Diagnostic> diagnostics;
  /// The artifact-cache counter delta observed across this run. `misses`
  /// are the meaningful metric: one per artifact actually computed. `hits`
  /// count every access that found the artifact cached — including a later
  /// stage of the SAME run re-reading it — so they measure cache traffic,
  /// not cross-instance sharing alone. (For a store-shared PARALLEL batch a
  /// concurrent sibling's compute may also land in the delta — per-run
  /// attribution is best-effort; ArtifactStore::stats() is the exact
  /// batch-level ledger.)
  ArtifactCacheStats cache;
};

}  // namespace genoc
