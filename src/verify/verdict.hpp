/// \file verdict.hpp
/// \brief The per-instance verification verdict and options — the plain-data
///        interface between the VerifyPipeline and its callers.
///
/// InstanceVerdict is the one-row summary every driver renders (`genoc
/// verify --all` matrix rows, the batch sweep, the test oracles). The
/// pipeline's richer output — typed Diagnostics, per-stage stats, artifact
/// cache counters — lives in VerifyReport (report.hpp); the verdict keeps
/// the legacy `method`/`note` strings, rendered from the same stage
/// decisions, so pre-pipeline callers see bit-identical results.
#pragma once

#include <cstdint>
#include <string>

namespace genoc {

class ThreadPool;
class ArtifactStore;

/// Options for one instance verification (VerifyPipeline::run, and
/// NetworkInstance::verify over it).
struct InstanceVerifyOptions {
  /// Shard the dependency-graph construction (per destination), the SCC
  /// stage and the escape-lane analysis across this pool; nullptr runs
  /// sequentially. Results are bit-identical either way. (BatchRunner IS-A
  /// ThreadPool, so batch callers pass their runner unchanged.)
  ThreadPool* runner = nullptr;
  /// Additionally discharge (C-1)/(C-2) (quadratic-ish; off for sweeps).
  bool check_constraints = false;
  /// Build the graph with the quadratic generic oracle instead of the fast
  /// builder, analytic or per-destination. The tests set it to cross-check
  /// the fast builders (bit-identical, so verdicts never differ); no CLI
  /// flag does.
  bool generic_builder = false;
  /// Batch-wide artifact sharing: when set, the analysis artifacts (dep
  /// graph, acyclicity verdict, escape analysis, constraints) are
  /// acquired from this store, keyed by the spec's topology x routing x
  /// escape prefix, so a second instance sharing the prefix reuses them
  /// instead of recomputing. nullptr analyzes the instance's own context
  /// (NetworkInstance::context()).
  ArtifactStore* artifacts = nullptr;
};

/// Verdict of one instance verification — one row of the `genoc verify
/// --all` matrix (the Table-I-per-instance shape).
struct InstanceVerdict {
  std::string instance;   ///< display name
  std::string spec;       ///< canonical spec string
  std::string topology;
  std::string routing;    ///< human-readable routing name
  std::string switching;
  std::size_t nodes = 0;
  std::size_t ports = 0;
  std::size_t edges = 0;  ///< dependency-graph edges
  bool deterministic = false;
  bool dep_acyclic = false;
  /// The headline: deadlock-free, either via Theorem 1 directly or via the
  /// escape-lane analysis when the primary graph is cyclic.
  bool deadlock_free = false;
  /// The verdict the spec REGISTERED (expect=deadlock marks negative
  /// fixtures like dragonfly-minimal); batch drivers pass when
  /// deadlock_free == expected_deadlock_free, not when deadlock_free.
  bool expected_deadlock_free = true;
  bool as_expected() const {
    return deadlock_free == expected_deadlock_free;
  }
  /// Rendered from the deciding stage's Diagnostics: "Theorem 1 (C-3)" |
  /// "escape(<name>)" | "cycle" | "undecided" (partial --stages runs).
  std::string method;
  std::string note;    ///< evidence summary / first counterexample
  bool constraints_ok = true;  ///< (C-1)/(C-2), when requested
  std::uint64_t checks = 0;    ///< elementary checks (deterministic count)
  double wall_ms = 0.0;        ///< steady_clock wall time of the whole run
  /// True CPU burned across the run: process-wide getrusage roll-up (all
  /// pool workers included), not the wall time the field used to misreport.
  double cpu_ms = 0.0;
  /// Peak process RSS (getrusage ru_maxrss, KiB) at the end of the run —
  /// a process-lifetime high-water mark, so within a batch it is the max
  /// over this and every earlier instance. Lets --baseline trends catch
  /// memory regressions next to wall_ms.
  std::int64_t max_rss_kb = 0;
};

}  // namespace genoc
