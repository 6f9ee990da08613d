#include "escape_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/cycle.hpp"
#include "topology/topology.hpp"

namespace genoc {

EscapeAnalysis escape_oracle(const RoutingFunction& adaptive,
                             const RoutingFunction& escape) {
  const Topology& topo = adaptive.topology();
  const std::size_t port_count = topo.port_count();
  EscapeAnalysis result;
  result.escape_graph.topo = &topo;
  result.escape_graph.mesh = dynamic_cast<const Mesh2D*>(&topo);
  result.escape_graph.graph = Digraph(port_count);

  std::vector<PortId> in_ports;
  for (PortId pid = 0; pid < port_count; ++pid) {
    if (topo.dir_of(pid) == Direction::kIn) {
      in_ports.push_back(pid);
    }
  }
  // Per port: the distinct lane successors emitted so far (a port has at
  // most a node's worth), so each edge enters the graph once.
  std::vector<std::vector<PortId>> successors(port_count);
  std::vector<std::uint32_t> stamp(port_count, 0);
  std::vector<PortId> frontier;
  std::vector<PortId> hops;
  std::vector<Port> scratch;
  ClosureRowScratch reach;

  for (std::size_t dest = 0; dest < topo.destination_count(); ++dest) {
    const auto epoch = static_cast<std::uint32_t>(dest + 1);
    frontier.clear();
    auto seed = [&](PortId pid) {
      if (stamp[pid] != epoch) {
        stamp[pid] = epoch;
        frontier.push_back(pid);
      }
    };
    // Availability: every adaptive-reachable in-port state needs a hop.
    const std::uint64_t* row = adaptive.closure_row(dest, reach);
    for (const PortId p : in_ports) {
      if (((row[p >> 6] >> (p & 63)) & 1u) == 0) {
        continue;
      }
      ++result.states_checked;
      hops.clear();
      escape.next_hop_ids_into(p, dest, hops, scratch);
      if (hops.empty() && result.missing_states++ == 0) {
        result.missing_escape = topo.port_label(p) + " / " +
                                topo.port_label(topo.destination_id(dest));
      }
      for (const PortId hop : hops) {
        seed(hop);
      }
    }
    // The lane's own closure, until consumption at a terminal OUT port.
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const PortId pid = frontier[head];
      if (topo.dir_of(pid) == Direction::kOut &&
          ((topo.terminal_name_mask() >> topo.name_of(pid)) & 1) != 0) {
        continue;
      }
      hops.clear();
      escape.next_hop_ids_into(pid, dest, hops, scratch);
      for (const PortId hop : hops) {
        std::vector<PortId>& seen = successors[pid];
        if (std::find(seen.begin(), seen.end(), hop) == seen.end()) {
          seen.push_back(hop);
          result.escape_graph.graph.add_edge(pid, hop);
        }
        seed(hop);
      }
    }
  }

  result.escape_always_available = result.missing_states == 0;
  result.escape_graph.graph.finalize();
  result.escape_graph_acyclic = is_acyclic(result.escape_graph.graph);
  result.deadlock_free =
      result.escape_always_available && result.escape_graph_acyclic;
  return result;
}

}  // namespace genoc
