/// \file network_instance.hpp
/// \brief NetworkInstance: an InstanceSpec brought to life — its analysis
///        context (topology, routing function, optional escape lane), its
///        switching policy and its workload bound into one
///        verifiable/simulable object.
///
/// `genoc sim`, the tests and the examples operate on NetworkInstances;
/// `genoc verify`, `analyze`, `campaign` and `export-dot` build the
/// AnalysisArtifacts context alone. Either way the topology and routing of
/// a spec are built in one place: the instance owns one AnalysisArtifacts
/// and forwards topology(), routing() and escape() to it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "instance/spec.hpp"
#include "routing/routing.hpp"
#include "sim/simulator.hpp"
#include "switching/policy.hpp"
#include "topology/mesh.hpp"
#include "verify/artifacts.hpp"
#include "verify/verdict.hpp"
#include "workload/traffic.hpp"

namespace genoc {

/// Topology factory over the registered families of known_topologies():
/// grids map to Mesh2D with the spec's wrap flags and failed= links,
/// cmesh/dragonfly to their own classes. Throws ContractViolation on
/// invalid specs.
std::unique_ptr<Topology> make_topology(const InstanceSpec& spec);

/// Routing-function factory over the canonical names of known_routings().
/// Each function REQUIRE-downcasts \p topology to the family it routes
/// (the eight grid functions need a Mesh2D, cmesh_dor a CMeshTopology,
/// dragonfly_min a DragonflyTopology) — validate specs first.
std::unique_ptr<RoutingFunction> make_routing(const std::string& name,
                                              const Topology& topology);

/// Switching-policy factory over known_switchings().
std::unique_ptr<SwitchingPolicy> make_switching(const std::string& name);

/// The name() of the policy make_switching(\p name) would build, without
/// building one.
std::string switching_policy_name(const std::string& name);

class NetworkInstance {
 public:
  /// Builds the analysis context and the switching policy. Requires
  /// validate_spec(spec).empty(); throws ContractViolation otherwise.
  explicit NetworkInstance(const InstanceSpec& spec);

  NetworkInstance(NetworkInstance&&) = default;
  NetworkInstance& operator=(NetworkInstance&&) = default;

  const InstanceSpec& spec() const { return spec_; }
  /// spec().name for presets; the canonical spec string for ad-hoc specs.
  const std::string& name() const { return display_name_; }
  /// The analysis context that owns topology, routing and escape lane,
  /// and caches the artifacts verify() computes (dependency graph,
  /// acyclicity, escape analysis). A mutex-guarded compute-once cache, so
  /// it is handed out from a const instance.
  AnalysisArtifacts& context() const { return *context_; }
  /// The port graph, whatever its family.
  const Topology& topology() const { return context_->topology(); }
  /// The grid view; REQUIREs spec().is_grid(). The Port-tuple consumers
  /// (simulator, escape lanes, constraints) go through this accessor.
  const Mesh2D& mesh() const;
  const RoutingFunction& routing() const { return context_->routing(); }
  /// The escape-lane routing, or nullptr when the spec has none.
  const RoutingFunction* escape() const { return context_->escape_routing(); }
  const SwitchingPolicy& switching() const { return *switching_; }

  /// The spec's workload (pattern/messages/seed), deterministically.
  /// Grid-only: the traffic patterns address the Port-tuple grid.
  std::vector<TrafficPair> make_traffic() const;

  /// Verifies deadlock freedom: builds the dependency graph, checks (C-3);
  /// on a cyclic graph falls back to the Duato escape-lane analysis when
  /// the spec names an escape routing. Deterministic modulo cpu_ms.
  ///
  /// Runs VerifyPipeline::standard() over context() — or over
  /// options.artifacts' shared context when a batch store is given — and
  /// returns the verdict row. A second call reuses the artifacts the first
  /// one cached. Callers that want the typed Diagnostics, per-stage stats
  /// or cache counters use VerifyPipeline::run directly.
  InstanceVerdict verify(const InstanceVerifyOptions& options = {}) const;

  /// Simulates \p pairs under the instance's switching policy (adaptive
  /// routes sampled from the spec seed). Audits CorrThm/EvacThm/(C-5).
  SimulationReport simulate(const std::vector<TrafficPair>& pairs,
                            const SimulationOptions& options = {}) const;

 private:
  InstanceSpec spec_;
  std::string display_name_;
  std::unique_ptr<AnalysisArtifacts> context_;
  std::unique_ptr<SwitchingPolicy> switching_;
};

}  // namespace genoc
