/// \file obligations.hpp
/// \brief The proof-obligation harness: discharges every user obligation of
///        the paper for a concrete HERMES instance and reports per-row
///        statistics in the shape of the paper's Table I.
///
/// Table I of the paper records, for each proof artifact (Rxy; Iid,(C-4);
/// Swh,(C-5); (C-1)xy; (C-2)xy; (C-3)xy; generic definitions; CorrThm;
/// Dead/EvacThm), the ACL2 effort: lines, theorems, functions, CPU minutes
/// and human days. Human proof effort has no runtime counterpart in a C++
/// reproduction; what is preserved is the *shape* — which obligations
/// require many case splits ((C-1), (C-2)), which one is the real work
/// ((C-3)), and that everything discharges. Each row here reports the
/// number of elementary checks performed, the number of distinct properties
/// verified, CPU time and the verdict; the paper's original numbers are
/// bundled alongside for side-by-side printing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hermes.hpp"
#include "verify/artifacts.hpp"

namespace genoc {

/// One row of the obligation run (one row of Table I).
struct ObligationRow {
  std::string label;          ///< paper row name, e.g. "(C-3)xy"
  std::uint64_t checks = 0;   ///< elementary checks performed
  std::uint64_t properties = 0;  ///< distinct verified properties
  double cpu_ms = 0.0;
  bool satisfied = false;
  std::string note;  ///< what was verified / first failure
};

/// The paper's published Table I numbers for the matching row (for
/// side-by-side output).
struct PaperEffortRow {
  std::string label;
  int lines = 0;
  int theorems = 0;
  int functions = 0;
  int cpu_minutes = 0;
  int human_days = -1;  ///< -1 renders as "N/A"
};

/// The paper's Table I, verbatim.
const std::vector<PaperEffortRow>& paper_table1();

/// Options for the obligation run.
struct ObligationOptions {
  std::uint32_t flit_count = 4;    ///< worm length for the simulation rows
  std::size_t workloads = 3;       ///< simulated workloads for Swh/CorrThm rows
  std::size_t messages_per_workload = 32;
  std::uint64_t seed = 2010;       ///< DATE 2010 :-)
};

/// Result of the full suite.
struct ObligationSuite {
  std::vector<ObligationRow> rows;
  /// Counters of the suite's one XY analysis context: each artifact is
  /// computed once (misses) and every later row reads it (hits).
  ArtifactCacheStats cache;
  bool all_satisfied() const;
  ObligationRow overall() const;  ///< column sums, label "Overall"
};

/// Runs every obligation of Sections V–VI on the given HERMES instance.
/// The deadlock rows read one AnalysisArtifacts context of
/// `topology=mesh size=WxH routing=xy`, decided once by
/// VerifyPipeline::standard() with (C-1)/(C-2) on — the same path as
/// `genoc verify --instance`:
///   Rxy        — route computation total/correct/minimal/deterministic
///   Iid,(C-4)  — injection is the identity (digest comparison)
///   Swh,(C-5)  — simulated workloads with per-step measure auditing
///   (C-1)xy    — routing dependencies are edges (the pipeline's report)
///   (C-2)xy    — every edge witnessed (the pipeline's brute force AND the
///                paper's find_dest form on the same graph)
///   (C-3)xy    — acyclicity (the pipeline's DFS + the closed-form flow
///                certificate, which shares nothing with the builder)
///   Generic Defs — the decided graph ≡ closed-form Exy_dep; state
///                  invariants on constructed configurations
///   CorrThm    — arrival audit on the simulated workloads
///   Dead/EvacThm — DeadThm from the (C-1)–(C-3) rows, evacuation equality
///                  on the runs, plus the Theorem-1 witness round-trip
///                  (cycle -> deadlock -> cycle) on the cycle the DFS finds
///                  in a deadlock-prone fully-adaptive context
ObligationSuite run_hermes_obligations(const HermesInstance& hermes,
                                       const ObligationOptions& options = {});

}  // namespace genoc
