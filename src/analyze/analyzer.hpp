/// \file analyzer.hpp
/// \brief Analyzer: an ordered selection of registered AnalysisRules run
///        over one instance's model constituents.
///
/// The static sibling of VerifyPipeline: where the pipeline DECIDES
/// deadlock freedom (Theorem 1 / escape lanes over the artifact cache),
/// the analyzer LINTS the model the decision will run on — routing
/// totality, the node-uniformity claim, turn-model conformance, escape
/// coverage, spec sanity, fault sets — each as a budget-bounded rule
/// with stable diagnostic codes. `genoc analyze` is its CLI front end;
/// `genoc verify --all` runs the cheap subset per instance as a
/// pre-screen (the fault-campaign front door: reject a broken variant for
/// milliseconds before spending a verify on it).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analyze/rule.hpp"

namespace genoc {

class AnalysisArtifacts;
class ThreadPool;

class Analyzer {
 public:
  /// The standard rule order (every registered built-in, cheap first).
  static const std::vector<std::string>& default_rule_names();

  /// The default analyzer over the global registry.
  static const Analyzer& standard();

  /// The cheap pre-screen subset `verify` attaches per instance:
  /// spec_sanity, turns and uniformity, leaving the closure-heavier
  /// totality/escape sweeps to an explicit `genoc analyze`. `turns` reads
  /// the context's dependency graph, which the verify pipeline then takes
  /// from the cache. `genoc verify` runs it on the verify's own pool,
  /// `genoc analyze` on a hardware-concurrency pool.
  static const Analyzer& cheap();
  static const std::vector<std::string>& cheap_rule_names();

  /// An analyzer of the named rules, in the given order. Unknown names,
  /// duplicates and the empty selection yield nullopt with a message in
  /// *error — the same contract as VerifyPipeline::from_stage_names, so
  /// `analyze --rules` mirrors `verify --stages` (exit 2 at the CLI).
  static std::optional<Analyzer> from_rule_names(
      const std::vector<std::string>& names, std::string* error);

  /// The configured rules, in run order.
  const std::vector<const AnalysisRule*>& rules() const { return rules_; }
  std::vector<std::string> rule_names() const;

  /// Runs every rule over the given model constituents. \p escape may be
  /// nullptr. This is the injection point for seeded-mutant tests: any
  /// RoutingFunction/Topology pair analyzes, registered or not; a rule
  /// that reads the dependency graph gets build_dep_graph_fast(routing,
  /// pool), built once. Every overload takes an optional \p pool, which
  /// shards only that graph build (AnalyzeContext::dep_graph); the report
  /// is the same without one.
  AnalyzeReport run(const InstanceSpec& spec, const Topology& topology,
                    const RoutingFunction& routing,
                    const RoutingFunction* escape,
                    const AnalyzeOptions& options = {},
                    ThreadPool* pool = nullptr) const;

  /// Runs over an existing artifact context (the `verify` integration: the
  /// batch's ArtifactStore already owns the topology/routing/escape for
  /// this spec prefix — analyze the same objects instead of rebuilding
  /// them). The dependency graph is artifacts.dep_graph(false, pool).
  AnalyzeReport run(const InstanceSpec& spec, AnalysisArtifacts& artifacts,
                    const AnalyzeOptions& options = {},
                    ThreadPool* pool = nullptr) const;

 private:
  explicit Analyzer(std::vector<const AnalysisRule*> rules);

  AnalyzeReport run(const InstanceSpec& spec, const Topology& topology,
                    const RoutingFunction& routing,
                    const RoutingFunction* escape,
                    const AnalyzeOptions& options,
                    std::function<const PortDepGraph&()> dep_graph) const;

  std::vector<const AnalysisRule*> rules_;
};

}  // namespace genoc
