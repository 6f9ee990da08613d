/// \file pipeline.hpp
/// \brief VerifyPipeline: an ordered selection of registered Check stages
///        run over one shared AnalysisArtifacts cache.
///
/// The standard pipeline is the paper's decision procedure in stage form:
///
///   build_depgraph  — materialize the channel-dependency graph (Sec. IV.A)
///   scc_acyclicity  — Theorem 1 / (C-3): acyclic => deadlock-free
///   escape          — the Duato escape-lane fallback for cyclic graphs
///   constraints     — (C-1)/(C-2), when requested
///
/// `genoc verify` runs it over an ArtifactStore context per spec;
/// `NetworkInstance::verify` is a thin wrapper over run() on the instance's
/// own context; `genoc verify --stages a,b,c` builds a custom selection
/// through from_stage_names().
/// Stages pull their inputs from the artifact cache, so a subset pipeline
/// stays sound — it computes what it needs and skips what does not apply —
/// but only a pipeline containing a deciding stage can conclude
/// deadlock-freedom; otherwise the verdict is "undecided".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "verify/check.hpp"
#include "verify/report.hpp"

namespace genoc {

class NetworkInstance;

class VerifyPipeline {
 public:
  /// The standard stage order above (every registered built-in).
  static const std::vector<std::string>& default_stage_names();

  /// The default pipeline over the global registry.
  static const VerifyPipeline& standard();

  /// A pipeline of the named stages, in the given order. Unknown names
  /// yield nullopt with a message listing the registered stages in *error.
  static std::optional<VerifyPipeline> from_stage_names(
      const std::vector<std::string>& names, std::string* error);

  /// The configured stages, in run order.
  const std::vector<const Check*>& stages() const { return stages_; }
  std::vector<std::string> stage_names() const;

  /// Runs every stage over \p artifacts and renders the report. The
  /// verdict's header fields come from \p spec (name, spec string,
  /// topology family, switching) and from the artifact context (routing
  /// name, node and port counts, determinism), so no NetworkInstance is
  /// built. \p artifacts must be a context of \p spec's analysis prefix
  /// (AnalysisArtifacts::key). cache counters are the DELTA this run
  /// caused.
  VerifyReport run(const InstanceSpec& spec, AnalysisArtifacts& artifacts,
                   const InstanceVerifyOptions& options) const;

  /// Same as run(instance.spec(), artifacts, options).
  VerifyReport run(const NetworkInstance& instance,
                   AnalysisArtifacts& artifacts,
                   const InstanceVerifyOptions& options) const;

  /// Convenience: run over the instance's own context (or the
  /// options.artifacts store's context when set) — exactly
  /// NetworkInstance::verify but returning the full report. The context
  /// caches: a second run on the same instance reuses the first run's
  /// artifacts, whatever builder or pool it asks for.
  VerifyReport run(const NetworkInstance& instance,
                   const InstanceVerifyOptions& options) const;

 private:
  explicit VerifyPipeline(std::vector<const Check*> stages);

  std::vector<const Check*> stages_;
};

}  // namespace genoc
