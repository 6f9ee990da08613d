#include "liveness_oracle.hpp"

#include <vector>

#include "topology/port.hpp"

namespace genoc {

PortLiveness port_liveness(const Topology& topo) {
  const std::size_t ports = topo.port_count();
  const std::size_t names = topo.name_count();
  const auto terminal = [&topo](PortId pid) {
    return ((topo.terminal_name_mask() >> topo.name_of(pid)) & 1) != 0;
  };
  // The inverse link relation, from link_target() alone: every out-port
  // driving each in-port.
  std::vector<std::vector<PortId>> drivers(ports);
  for (PortId pid = 0; pid < ports; ++pid) {
    if (topo.dir_of(pid) == Direction::kOut &&
        topo.link_target(pid) != kInvalidPort) {
      drivers[topo.link_target(pid)].push_back(pid);
    }
  }

  std::vector<PortId> queue;
  const auto visit = [&queue](std::vector<char>& seen, PortId pid) {
    if (pid != kInvalidPort && !seen[pid]) {
      seen[pid] = 1;
      queue.push_back(pid);
    }
  };
  const auto node_ports = [&](std::vector<char>& seen, PortId pid,
                              Direction dir) {
    for (std::size_t n = 0; n < names; ++n) {
      visit(seen, topo.slot_id(topo.node_of(pid), n, dir));
    }
  };

  std::vector<char> forward(ports, 0);
  for (PortId pid = 0; pid < ports; ++pid) {
    if (topo.dir_of(pid) == Direction::kIn && terminal(pid)) {
      visit(forward, pid);
    }
  }
  while (!queue.empty()) {
    const PortId pid = queue.back();
    queue.pop_back();
    if (topo.dir_of(pid) == Direction::kIn) {
      node_ports(forward, pid, Direction::kOut);
    } else {
      visit(forward, topo.link_target(pid));
    }
  }

  std::vector<char> backward(ports, 0);
  for (PortId pid = 0; pid < ports; ++pid) {
    if (topo.dir_of(pid) == Direction::kOut && terminal(pid)) {
      visit(backward, pid);
    }
  }
  while (!queue.empty()) {
    const PortId pid = queue.back();
    queue.pop_back();
    if (topo.dir_of(pid) == Direction::kOut) {
      node_ports(backward, pid, Direction::kIn);
    } else {
      for (const PortId driver : drivers[pid]) {
        visit(backward, driver);
      }
    }
  }

  PortLiveness liveness;
  for (PortId pid = 0; pid < ports; ++pid) {
    liveness.unreachable += forward[pid] ? 0 : 1;
    liveness.dead_ends += backward[pid] ? 0 : 1;
  }
  return liveness;
}

}  // namespace genoc
