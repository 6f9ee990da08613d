#include "core/hermes.hpp"

#include "util/require.hpp"

namespace genoc {

HermesInstance::HermesInstance(std::int32_t width, std::int32_t height,
                               std::size_t buffers_per_port,
                               std::size_t local_buffers)
    : mesh_(width, height),
      routing_(mesh_),
      buffers_per_port_(buffers_per_port),
      local_buffers_(local_buffers == 0 ? buffers_per_port : local_buffers) {
  GENOC_REQUIRE(buffers_per_port >= 1, "ports need at least one buffer");
}

Config HermesInstance::make_config(const std::vector<TrafficPair>& pairs,
                                   std::uint32_t flit_count) const {
  Config config(mesh_, buffers_per_port_);
  if (local_buffers_ != buffers_per_port_) {
    for (const NodeCoord n : mesh_.nodes()) {
      config.state().set_capacity(mesh_.local_in(n.x, n.y), local_buffers_);
      config.state().set_capacity(mesh_.local_out(n.x, n.y), local_buffers_);
    }
  }
  TravelId next_id = 1;
  for (const TrafficPair& pair : pairs) {
    config.add_travel(
        make_travel(next_id++, routing_, pair.source, pair.dest, flit_count));
  }
  return config;
}

GenocRunResult HermesInstance::run(Config& config,
                                   const GenocOptions& options) const {
  const GenocInterpreter interpreter(injection_, switching_, measure_);
  return interpreter.run(config, options);
}

TheoremReport HermesInstance::verify_deadlock_free() const {
  return check_deadlock_theorem(routing_, build_exy_dep(mesh_));
}

}  // namespace genoc
