/// \file network_instance.hpp
/// \brief NetworkInstance: an InstanceSpec brought to life — topology,
///        routing function, optional escape lane, switching policy and
///        workload bound into one verifiable/simulable object.
///
/// This is the layer the paper implies between the generic theory and the
/// drivers: `genoc verify/sim/export-dot` all operate on NetworkInstances
/// now, so every topology x routing x switching combination the spec
/// grammar can express goes through one code path instead of a hand-wired
/// main per experiment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deadlock/depgraph.hpp"
#include "instance/spec.hpp"
#include "routing/routing.hpp"
#include "sim/simulator.hpp"
#include "switching/policy.hpp"
#include "topology/mesh.hpp"
#include "verify/verdict.hpp"
#include "workload/traffic.hpp"

namespace genoc {

class ThreadPool;

/// Topology factory over the registered families of known_topologies():
/// grids map to Mesh2D with the spec's wrap flags, cmesh/dragonfly to their
/// own classes. Throws ContractViolation on invalid specs.
std::unique_ptr<Topology> make_topology(const InstanceSpec& spec);

/// Routing-function factory over the canonical names of known_routings().
/// Each function REQUIRE-downcasts \p topology to the family it routes
/// (the eight grid functions need a Mesh2D, cmesh_dor a CMeshTopology,
/// dragonfly_min a DragonflyTopology) — validate specs first.
std::unique_ptr<RoutingFunction> make_routing(const std::string& name,
                                              const Topology& topology);

/// Switching-policy factory over known_switchings().
std::unique_ptr<SwitchingPolicy> make_switching(const std::string& name);

class NetworkInstance {
 public:
  /// Builds every constituent. Requires validate_spec(spec).empty();
  /// throws ContractViolation otherwise.
  explicit NetworkInstance(const InstanceSpec& spec);

  NetworkInstance(NetworkInstance&&) = default;
  NetworkInstance& operator=(NetworkInstance&&) = default;

  const InstanceSpec& spec() const { return spec_; }
  /// spec().name for presets; the canonical spec string for ad-hoc specs.
  const std::string& name() const { return display_name_; }
  /// The port graph, whatever its family.
  const Topology& topology() const { return *topo_; }
  /// The grid view; REQUIREs spec().is_grid(). The Port-tuple consumers
  /// (simulator, escape lanes, constraints) go through this accessor.
  const Mesh2D& mesh() const;
  const RoutingFunction& routing() const { return *routing_; }
  /// The escape-lane routing, or nullptr when the spec has none.
  const RoutingFunction* escape() const { return escape_.get(); }
  const SwitchingPolicy& switching() const { return *switching_; }

  /// The spec's workload (pattern/messages/seed), deterministically.
  /// Grid-only: the traffic patterns address the Port-tuple grid.
  std::vector<TrafficPair> make_traffic() const;

  /// The port dependency graph of the instance's routing function, built
  /// by build_dep_graph_fast (analytic, else per destination and sharded
  /// on \p runner when given). Bit-identical to the generic construction.
  PortDepGraph dependency_graph(ThreadPool* runner = nullptr) const;

  /// Verifies deadlock freedom: builds the dependency graph, checks (C-3);
  /// on a cyclic graph falls back to the Duato escape-lane analysis when
  /// the spec names an escape routing. Deterministic modulo cpu_ms.
  ///
  /// Compatibility wrapper: runs VerifyPipeline::standard() (verify/) over
  /// this instance's constituents — or over options.artifacts' shared
  /// context when a batch store is given — and returns the verdict row.
  /// Callers that want the typed Diagnostics, per-stage stats or cache
  /// counters use VerifyPipeline::run directly.
  InstanceVerdict verify(const InstanceVerifyOptions& options = {}) const;

  /// Simulates \p pairs under the instance's switching policy (adaptive
  /// routes sampled from the spec seed). Audits CorrThm/EvacThm/(C-5).
  SimulationReport simulate(const std::vector<TrafficPair>& pairs,
                            const SimulationOptions& options = {}) const;

 private:
  InstanceSpec spec_;
  std::string display_name_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<RoutingFunction> routing_;
  std::unique_ptr<RoutingFunction> escape_;
  std::unique_ptr<SwitchingPolicy> switching_;
};

}  // namespace genoc
