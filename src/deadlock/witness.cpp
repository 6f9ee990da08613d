#include "deadlock/witness.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/require.hpp"

namespace genoc {

namespace {

/// Finds a destination d with p0 R d and p1 ∈ R(p0, d) — the (C-2) witness
/// for edge (p0, p1) — by brute force over all destinations.
Port find_edge_witness(const RoutingFunction& routing, const Port& p0,
                       const Port& p1) {
  for (const Port& d : routing.mesh().destinations()) {
    if (!routing.reachable(p0, d)) {
      continue;
    }
    for (const Port& q : routing.next_hops(p0, d)) {
      if (q == p1) {
        return d;
      }
    }
  }
  GENOC_REQUIRE(false, "no (C-2) witness destination for edge (" +
                           to_string(p0) + " -> " + to_string(p1) +
                           "): the cycle is not realizable");
}

/// Builds a route from p0 to d whose second port is p1; after the forced
/// first hop it follows the routing function, taking the first choice at
/// every adaptive branch (all our adaptive functions are minimal, so every
/// branch terminates at d).
Route route_across_edge(const RoutingFunction& routing, const Port& p0,
                        const Port& p1, const Port& d) {
  const std::size_t bound = routing.mesh().port_count() + 1;
  Route route{p0, p1};
  Port current = p1;
  while (current != d) {
    const std::vector<Port> hops = routing.next_hops(current, d);
    GENOC_REQUIRE(!hops.empty(), "routing dead-ends at " + to_string(current) +
                                     " toward " + to_string(d));
    current = hops.front();
    route.push_back(current);
    GENOC_REQUIRE(route.size() <= bound,
                  "routing does not terminate while building witness route");
  }
  return route;
}

}  // namespace

DeadlockConstruction build_deadlock_from_cycle(const RoutingFunction& routing,
                                               const PortDepGraph& dep,
                                               const CycleWitness& cycle,
                                               std::size_t capacity) {
  GENOC_REQUIRE(is_valid_cycle(dep.graph, cycle),
                "build_deadlock_from_cycle requires a valid cycle of the "
                "dependency graph");
  GENOC_REQUIRE(capacity >= 1, "ports need at least one buffer");
  const Mesh2D& mesh = routing.mesh();

  DeadlockConstruction result{NetworkState(mesh, capacity), {}, {}};
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const Port p0 = dep.port_of(cycle[i]);
    const Port p1 = dep.port_of(cycle[(i + 1) % cycle.size()]);
    const Port d = find_edge_witness(routing, p0, p1);
    const Route route = route_across_edge(routing, p0, p1, d);

    PacketSpec spec;
    spec.id = static_cast<TravelId>(i + 1);
    spec.route = route;
    // Fill every buffer of p0 so the port is unavailable to everyone else.
    spec.flit_count = static_cast<std::uint32_t>(capacity);
    result.state.place_packet(spec);
    result.packets.push_back(std::move(spec));
    result.destinations.push_back(d);
  }
  result.state.validate();
  return result;
}

DeadlockCycle extract_cycle_from_deadlock(const SwitchingPolicy& policy,
                                          const NetworkState& state) {
  GENOC_REQUIRE(is_deadlock(policy, state),
                "extract_cycle_from_deadlock requires a deadlocked "
                "configuration (Ω)");
  const Mesh2D& mesh = state.mesh();

  // Start from any occupied port and follow the blocked-by relation: the
  // head flit of each port waits for exactly one port (its next route hop).
  PortId start = 0;
  bool found = false;
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    if (state.occupancy(pid) > 0) {
      start = pid;
      found = true;
      break;
    }
  }
  GENOC_REQUIRE(found, "deadlocked state has no buffered flit; all packets "
                       "are blocked at entry by in-network packets — "
                       "impossible under Ω");

  std::unordered_map<PortId, std::size_t> visit_index;
  std::vector<PortId> walk;
  std::vector<TravelId> owners;
  PortId current = start;
  for (;;) {
    const auto it = visit_index.find(current);
    if (it != visit_index.end()) {
      // Cycle found: the walk suffix starting at the first visit of
      // `current`.
      DeadlockCycle cycle;
      for (std::size_t i = it->second; i < walk.size(); ++i) {
        cycle.ports.push_back(mesh.port(walk[i]));
        cycle.packets.push_back(owners[i]);
      }
      return cycle;
    }
    visit_index.emplace(current, walk.size());
    walk.push_back(current);

    const FlitRef head = state.buffer(current).front();
    owners.push_back(head.travel);
    const PacketSpec& spec = state.packet(head.travel);
    const std::int32_t pos = state.flit_pos(head.travel, head.index);
    GENOC_ASSERT(pos >= 0, "buffered flit has no position");
    const auto next_idx = static_cast<std::size_t>(pos) + 1;
    GENOC_ASSERT(next_idx < spec.route.size(), "head flit beyond route end");
    // In a deadlock the next hop cannot be the destination Local OUT
    // (consumption is guaranteed there), so it is a real blocked port.
    GENOC_ASSERT(next_idx + 1 < spec.route.size(),
                 "head flit facing the destination cannot be blocked");
    const PortId target = mesh.id(spec.route[next_idx]);
    GENOC_ASSERT(state.occupancy(target) > 0,
                 "blocking port is empty — state is not actually deadlocked");
    current = target;
  }
}

bool cycle_lies_in_dep_graph(const PortDepGraph& dep,
                             const std::vector<Port>& ports) {
  if (ports.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const Port& from = ports[i];
    const Port& to = ports[(i + 1) % ports.size()];
    if (!dep.mesh->exists(from) || !dep.mesh->exists(to)) {
      return false;
    }
    if (!dep.graph.has_edge(dep.mesh->id(from), dep.mesh->id(to))) {
      return false;
    }
  }
  return true;
}

}  // namespace genoc
