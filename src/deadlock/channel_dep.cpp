#include "deadlock/channel_dep.hpp"

#include <unordered_map>

#include "util/dot.hpp"
#include "util/require.hpp"

namespace genoc {

std::string ChannelDepGraph::to_dot(const std::string& name) const {
  DotOptions options;
  options.graph_name = name;
  return genoc::to_dot(
      graph.vertex_count(), graph.edges(),
      [this](std::size_t v) { return label(v); }, options);
}

ChannelDepGraph build_channel_dep_graph(const RoutingFunction& routing) {
  const Mesh2D& mesh = routing.mesh();
  ChannelDepGraph result;
  result.mesh = &mesh;

  std::unordered_map<Port, std::size_t> index;
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    if (p.dir == Direction::kOut && p.name != PortName::kLocal) {
      index.emplace(p, result.channels.size());
      result.channels.push_back(p);
    }
  }
  result.graph = Digraph(result.channels.size());

  for (std::size_t v = 0; v < result.channels.size(); ++v) {
    const Port& c1 = result.channels[v];
    const Port far_in = mesh.next_in(c1);
    GENOC_ASSERT(mesh.exists(far_in), "channel without far-end in-port");
    for (const Port& d : mesh.destinations()) {
      // A packet holds c1 en route to d iff c1 itself is reachability-
      // consistent with d; it then sits in far_in and requests R(far_in, d).
      if (!routing.reachable(c1, d)) {
        continue;
      }
      for (const Port& q : routing.next_hops(far_in, d)) {
        const auto it = index.find(q);
        if (it != index.end()) {
          result.graph.add_edge(v, it->second);
        }
        // Local OUT ports are consumption, not channels: no dependency.
      }
    }
  }
  result.graph.finalize();
  return result;
}

}  // namespace genoc
