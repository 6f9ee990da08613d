#include "instance/network_instance.hpp"

#include <utility>

#include "routing/cmesh_dor.hpp"
#include "routing/dragonfly_min.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/negative_first.hpp"
#include "routing/north_last.hpp"
#include "routing/odd_even.hpp"
#include "routing/torus_xy.hpp"
#include "routing/west_first.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "switching/store_forward.hpp"
#include "switching/wormhole.hpp"
#include "util/require.hpp"
#include "verify/pipeline.hpp"

namespace genoc {

namespace {

/// Downcast helper for the factory: each routing function routes exactly
/// one topology family, so a mismatched spec is a contract violation.
template <typename T>
const T& family_cast(const Topology& topology, const std::string& name) {
  const T* cast = dynamic_cast<const T*>(&topology);
  GENOC_REQUIRE(cast != nullptr, "routing '" + name +
                                     "' cannot route a " + topology.family() +
                                     " topology");
  return *cast;
}

}  // namespace

std::unique_ptr<Topology> make_topology(const InstanceSpec& spec) {
  if (spec.topology == "cmesh") {
    return std::make_unique<CMeshTopology>(spec.width, spec.height,
                                           spec.concentration);
  }
  if (spec.topology == "dragonfly") {
    return std::make_unique<DragonflyTopology>(
        spec.df_routers, spec.df_globals, spec.df_terminals,
        spec.df_groups_resolved());
  }
  GENOC_REQUIRE(spec.is_grid(),
                "unknown topology family '" + spec.topology + "'");
  std::vector<LinkFault> faults;
  faults.reserve(spec.failed_links.size());
  for (const std::string& token : spec.failed_links) {
    std::string error;
    const std::optional<LinkFault> fault = parse_link_fault(token, &error);
    GENOC_REQUIRE(fault.has_value(), error);
    faults.push_back(*fault);
  }
  return std::make_unique<Mesh2D>(spec.width, spec.height, spec.wrap_x(),
                                  spec.wrap_y(), std::move(faults));
}

std::unique_ptr<RoutingFunction> make_routing(const std::string& name,
                                              const Topology& topology) {
  if (name == "cmesh_dor") {
    return std::make_unique<CMeshDORRouting>(
        family_cast<CMeshTopology>(topology, name));
  }
  if (name == "dragonfly_min") {
    return std::make_unique<DragonflyMinRouting>(
        family_cast<DragonflyTopology>(topology, name));
  }
  const Mesh2D& mesh = family_cast<Mesh2D>(topology, name);
  if (name == "xy") {
    return std::make_unique<XYRouting>(mesh);
  }
  if (name == "yx") {
    return std::make_unique<YXRouting>(mesh);
  }
  if (name == "torus_xy") {
    return std::make_unique<TorusXYRouting>(mesh);
  }
  if (name == "west_first") {
    return std::make_unique<WestFirstRouting>(mesh);
  }
  if (name == "north_last") {
    return std::make_unique<NorthLastRouting>(mesh);
  }
  if (name == "negative_first") {
    return std::make_unique<NegativeFirstRouting>(mesh);
  }
  if (name == "odd_even") {
    return std::make_unique<OddEvenRouting>(mesh);
  }
  if (name == "fully_adaptive") {
    return std::make_unique<FullyAdaptiveRouting>(mesh);
  }
  GENOC_REQUIRE(false, "unknown routing function '" + name + "'");
  return nullptr;
}

namespace {

/// One row per known_switchings() value: the spec name, the built policy's
/// name() and its factory, so naming a policy needs no instance of it.
struct SwitchingEntry {
  const char* spec_name;
  const char* policy_name;
  std::unique_ptr<SwitchingPolicy> (*make)();
};

template <typename Policy>
std::unique_ptr<SwitchingPolicy> make_policy() {
  return std::make_unique<Policy>();
}

constexpr SwitchingEntry kSwitchings[] = {
    {"wormhole", WormholeSwitching::kName, &make_policy<WormholeSwitching>},
    {"store_forward", StoreForwardSwitching::kName,
     &make_policy<StoreForwardSwitching>},
};

const SwitchingEntry& switching_entry(const std::string& name) {
  for (const SwitchingEntry& entry : kSwitchings) {
    if (name == entry.spec_name) {
      return entry;
    }
  }
  GENOC_REQUIRE(false, "unknown switching policy '" + name + "'");
  return kSwitchings[0];
}

}  // namespace

std::unique_ptr<SwitchingPolicy> make_switching(const std::string& name) {
  return switching_entry(name).make();
}

std::string switching_policy_name(const std::string& name) {
  return switching_entry(name).policy_name;
}

NetworkInstance::NetworkInstance(const InstanceSpec& spec)
    : spec_(spec),
      context_(std::make_unique<AnalysisArtifacts>(spec_)),
      switching_(make_switching(spec_.switching)) {
  display_name_ = display_name(spec_);
}

const Mesh2D& NetworkInstance::mesh() const {
  const Mesh2D* grid = dynamic_cast<const Mesh2D*>(&topology());
  GENOC_REQUIRE(grid != nullptr, "instance '" + display_name_ +
                                     "' is a " + topology().family() +
                                     ", not a grid");
  return *grid;
}

std::vector<TrafficPair> NetworkInstance::make_traffic() const {
  const auto pattern = parse_traffic_pattern(spec_.pattern);
  GENOC_REQUIRE(pattern.has_value(),
                "invalid pattern survived validation: " + spec_.pattern);
  Rng rng(spec_.seed);
  return generate_traffic(*pattern, mesh(), spec_.messages, rng);
}

InstanceVerdict NetworkInstance::verify(
    const InstanceVerifyOptions& options) const {
  return VerifyPipeline::standard().run(*this, options).verdict;
}

SimulationReport NetworkInstance::simulate(
    const std::vector<TrafficPair>& pairs,
    const SimulationOptions& options) const {
  SimulationOptions opts = options;
  opts.flit_count = spec_.flits;
  Rng rng(spec_.seed);
  return simulate_routing(mesh(), routing(), pairs, spec_.buffers, rng, opts,
                          switching_.get());
}

}  // namespace genoc
