/// \file rule.hpp
/// \brief The AnalysisRule interface — one named, registrable rule of the
///        static model analyzer — and the global registry `genoc analyze
///        --rules` / `genoc list --rules` resolve against.
///
/// The analyzer is the static front half of the paper's thesis: deadlock
/// freedom is decidable from the routing function alone, so the modelling
/// properties the dynamic pipeline RELIES on (routing totality, the
/// node-uniformity claim behind the zero-storage closure tier, turn-model
/// conformance, escape-lane coverage) deserve their own cheap, explicit
/// checks that run BEFORE the SCC machinery — and fail with stable
/// diagnostic codes instead of corrupting a sweep downstream. The shape
/// deliberately mirrors Check/CheckRegistry in src/verify/check.hpp (and
/// chuffed's register-once-look-up-by-name idiom): stateless singleton
/// rules in an immutable registry, each deciding applicability itself, all
/// findings carried by the same typed Diagnostic records the verify
/// pipeline emits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "instance/spec.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"
#include "verify/diagnostics.hpp"

namespace genoc {

struct PortDepGraph;

/// Work bounds of one analyzer run. Rules that sweep a (port x destination)
/// or (node x destination) product sample destinations with a deterministic
/// stride so the analyzer stays interactive on every registry preset
/// (mesh256-xy included) — a lint pass, not a proof. Every sampled rule
/// scans its destinations in one sequential loop, so its report is the same
/// at any thread count. `turns` samples nothing.
struct AnalyzeOptions {
  /// Budget in elementary (port, destination) probes for the sweeping
  /// rules (totality, escape coverage, connectivity), covering every port
  /// of every sampled destination. ~8M samples 13 of mesh256-xy's 65,536
  /// destinations.
  std::uint64_t state_budget = 1ull << 23;
  /// Budget in (node, destination, port-name) probes for the
  /// node-uniformity audit, per audited function (routing, escape lane).
  std::uint64_t uniformity_budget = 1ull << 23;
  /// Per-code cap on emitted findings; the summary diagnostic always
  /// carries the full violation count.
  std::uint64_t max_findings_per_code = 8;
};

/// The analyzer's report: per-rule StageStats plus the typed findings.
/// "Clean" means no warning/error finding — info records (positive
/// evidence, negative-fixture notes) do not dirty a model.
struct AnalyzeReport {
  /// Version of the `genoc analyze --json` schema
  /// (tools/check_analyze_schema.py speaks exactly this version).
  static constexpr int kSchemaVersion = 1;

  std::string instance;  ///< registry name, or the spec string when ad hoc
  std::string spec;      ///< canonical key=value spec string
  std::string topology;
  std::string routing;
  std::size_t nodes = 0;
  std::size_t ports = 0;
  std::vector<StageStats> rules;        ///< one entry per configured rule
  std::vector<Diagnostic> diagnostics;  ///< findings, in rule order
  std::uint64_t checks = 0;             ///< elementary probes, summed
  double wall_ms = 0.0;

  /// Warning/error findings (the count `analyze` reports and exits 1 on).
  std::size_t findings() const {
    std::size_t count = 0;
    for (const Diagnostic& diagnostic : diagnostics) {
      if (diagnostic.severity != Severity::kInfo) {
        ++count;
      }
    }
    return count;
  }

  bool clean() const { return findings() == 0; }
};

/// Everything a rule may read or write while running. Unlike CheckContext
/// this carries the model constituents directly (not the artifact cache):
/// rules are read-only consumers of topology/routing, so tests can inject
/// seeded-mutant routings without registering fake instances.
struct AnalyzeContext {
  const InstanceSpec& spec;
  const Topology& topology;
  const RoutingFunction& routing;
  const RoutingFunction* escape = nullptr;  ///< escape lane, or nullptr
  const AnalyzeOptions& options;
  /// The report under construction: rules append to report.diagnostics.
  /// (report.rules is managed by the Analyzer.)
  AnalyzeReport& report;
  /// The routing's dependency graph, built on the first call (`turns`
  /// reads its turn edges): an artifact context's cached graph, which the
  /// verify pipeline then reads, or one built for this run. The pool given
  /// to Analyzer::run shards this build and nothing else.
  std::function<const PortDepGraph&()> dep_graph;
};

/// One analyzer rule. Implementations are stateless singletons owned by
/// the registry; run() decides applicability itself (returning ran ==
/// false with a skip reason), so a rule selection never needs conditional
/// wiring.
class AnalysisRule {
 public:
  virtual ~AnalysisRule() = default;

  /// Stable registry name (`--rules` token): "spec_sanity", "turns",
  /// "uniformity", "totality", "escape", "fault_sanity", "connectivity".
  virtual const char* name() const = 0;

  /// One-line description for `genoc list --rules`.
  virtual const char* description() const = 0;

  /// Runs the rule (or records why it did not apply). The returned stats
  /// carry ran/passed/checks/skip_reason; the Analyzer fills the timings.
  virtual StageStats run(AnalyzeContext& ctx) const = 0;
};

/// The process-wide rule registry (immutable after construction; built-in
/// rules register in its constructor, mirroring CheckRegistry).
class RuleRegistry {
 public:
  static const RuleRegistry& global();

  const std::vector<const AnalysisRule*>& rules() const { return views_; }
  std::vector<std::string> names() const;

  /// The rule named \p name, or nullptr.
  const AnalysisRule* find(const std::string& name) const;

 private:
  RuleRegistry();

  std::vector<std::unique_ptr<AnalysisRule>> owned_;
  std::vector<const AnalysisRule*> views_;
};

}  // namespace genoc
