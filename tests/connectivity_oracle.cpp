#include "connectivity_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "topology/mesh.hpp"

namespace genoc {

namespace {

constexpr const char* kRule = "connectivity";

Diagnostic make_diagnostic(
    const char* rule, Severity severity, std::string code, std::string message,
    std::vector<std::pair<std::string, std::string>> witness = {}) {
  Diagnostic diag;
  diag.stage = rule;
  diag.severity = severity;
  diag.code = std::move(code);
  diag.message = std::move(message);
  diag.witness = std::move(witness);
  return diag;
}

std::size_t stride_for(std::size_t count, std::uint64_t cost_per,
                       std::uint64_t budget) {
  const std::uint64_t total = static_cast<std::uint64_t>(count) * cost_per;
  if (count == 0 || budget == 0 || total <= budget) {
    return 1;
  }
  return static_cast<std::size_t>((total + budget - 1) / budget);
}

/// True iff every failed link's endpoint nodes reach each other over the
/// surviving links: one BFS per fault, stopped at the other endpoint, so
/// a fault with a short detour costs a few nodes, not the whole grid.
bool fault_endpoints_connected(const Mesh2D& mesh) {
  if (!mesh.has_faults()) {
    return true;
  }
  std::vector<std::uint32_t> seen(mesh.node_count(), 0);
  std::vector<std::size_t> queue;
  std::uint32_t stamp = 0;
  for (const LinkFault& fault : mesh.failed_links()) {
    const auto goal = static_cast<std::size_t>(
        link_fault_peer(fault, mesh.width(), mesh.height(), mesh.wraps_x(),
                        mesh.wraps_y())
            .node);
    ++stamp;
    queue.assign(1, static_cast<std::size_t>(fault.node));
    seen[queue.front()] = stamp;
    bool reached = false;
    for (std::size_t head = 0; head < queue.size() && !reached; ++head) {
      const PortId* slots = mesh.node_slots(queue[head]);
      for (const PortName name : {PortName::kEast, PortName::kWest,
                                  PortName::kNorth, PortName::kSouth}) {
        const PortId out = slots[port_slot(name, Direction::kOut)];
        if (out == kInvalidPort) {
          continue;
        }
        const std::size_t next = mesh.node_of(mesh.link_target(out));
        reached = reached || next == goal;
        if (seen[next] != stamp) {
          seen[next] = stamp;
          queue.push_back(next);
        }
      }
    }
    if (!reached) {
      return false;
    }
  }
  return true;
}

}  // namespace

StageStats connectivity_oracle(const Topology& topo,
                             const RoutingFunction& routing,
                             const AnalyzeOptions& options,
                             std::vector<Diagnostic>& diagnostics) {
  StageStats stats;
  stats.stage = kRule;
  stats.ran = true;
  const std::size_t nodes = topo.node_count();

  // An unfaulted grid is connected, so a faulted one is iff each failed
  // link's two endpoint nodes still reach each other (a base path detours
  // around every removed link). Then no node is cut off, and the full
  // BFS below would have visited every node and counted each OUT port
  // once.
  std::uint64_t disconnected = 0;
  const auto* grid = dynamic_cast<const Mesh2D*>(&topo);
  if (grid != nullptr && fault_endpoints_connected(*grid)) {
    for (std::size_t node = 0; node < nodes; ++node) {
      stats.checks += static_cast<std::uint64_t>(
          std::popcount(topo.out_exists_mask(node)));
    }
  } else {
    // The full BFS from the first terminal node, which counts every OUT
    // port it scans and lists the terminal nodes it never reaches. Links
    // are removed in pairs (both directions of a channel), so the node
    // graph is symmetric and one BFS decides mutual connectivity.
    const std::size_t names = topo.name_count();
    std::vector<char> terminal(nodes, 0);
    for (const PortId source : topo.source_ids()) {
      terminal[topo.node_of(source)] = 1;
    }
    for (const PortId dest : topo.destination_ids()) {
      terminal[topo.node_of(dest)] = 1;
    }
    std::vector<char> seen(nodes, 0);
    std::vector<std::size_t> queue;
    queue.reserve(nodes);
    for (std::size_t node = 0; node < nodes; ++node) {
      if (terminal[node]) {
        seen[node] = 1;
        queue.push_back(node);
        break;
      }
    }
    while (!queue.empty()) {
      const std::size_t node = queue.back();
      queue.pop_back();
      const PortId* slots = topo.node_slots(node);
      for (std::size_t n = 0; n < names; ++n) {
        const PortId out =
            slots[n * 2 + static_cast<std::size_t>(Direction::kOut)];
        if (out == kInvalidPort) {
          continue;
        }
        ++stats.checks;
        const PortId target = topo.link_target(out);
        if (target == kInvalidPort) {
          continue;  // terminal out-port: ejection, not a link
        }
        const std::size_t next = topo.node_of(target);
        if (!seen[next]) {
          seen[next] = 1;
          queue.push_back(next);
        }
      }
    }
    for (std::size_t node = 0; node < nodes; ++node) {
      if (!terminal[node] || seen[node]) {
        continue;
      }
      ++disconnected;
      if (disconnected <= options.max_findings_per_code) {
        diagnostics.push_back(make_diagnostic(
            kRule, Severity::kError, "net-disconnected",
            "terminal node " + topo.node_label(node) +
                " is cut off from the rest of the network by the failed "
                "links",
            {{"node", topo.node_label(node)}}));
      }
    }
  }

  // Routing-level coverage: node-uniform routings expose the exact local
  // test "does node n select any surviving out-port toward d". With
  // faults present only the fault-endpoint nodes can have lost coverage
  // (masks are position-based), so those are checked exhaustively over
  // every destination; fault-free models sample destinations instead.
  std::uint64_t uncovered = 0;
  if (routing.node_uniform()) {
    const std::size_t dests = topo.destination_count();
    const Mesh2D* mesh = routing.grid();
    std::vector<std::size_t> check_nodes;
    std::size_t stride = 1;
    if (mesh != nullptr && mesh->has_faults()) {
      for (const LinkFault& fault : mesh->failed_links()) {
        const LinkFault peer =
            link_fault_peer(fault, mesh->width(), mesh->height(),
                            mesh->wraps_x(), mesh->wraps_y());
        check_nodes.push_back(static_cast<std::size_t>(fault.node));
        check_nodes.push_back(static_cast<std::size_t>(peer.node));
      }
      std::sort(check_nodes.begin(), check_nodes.end());
      check_nodes.erase(
          std::unique(check_nodes.begin(), check_nodes.end()),
          check_nodes.end());
    } else {
      check_nodes.resize(nodes);
      for (std::size_t node = 0; node < nodes; ++node) {
        check_nodes[node] = node;
      }
      stride = stride_for(dests, nodes, options.state_budget);
    }
    for (std::size_t d = 0; d < dests; d += stride) {
      const PortId dest_id = topo.destination_id(d);
      const std::size_t dest_node = topo.node_of(dest_id);
      for (const std::size_t node : check_nodes) {
        if (node == dest_node) {
          continue;
        }
        ++stats.checks;
        const std::uint64_t mask =
            routing.out_mask_id(node, d) & topo.out_exists_mask(node);
        if (mask != 0) {
          continue;
        }
        ++uncovered;
        if (uncovered <= options.max_findings_per_code) {
          diagnostics.push_back(make_diagnostic(
              kRule, Severity::kWarning, "route-disconnected",
              "routing selects no surviving out-port at node " +
                  topo.node_label(node) + " toward " +
                  topo.port_label(dest_id) +
                  " — traffic strands at the fault (deadlock verdict "
                  "on routed traffic stays well-posed)",
              {{"node", topo.node_label(node)},
               {"destination", topo.port_label(dest_id)}}));
        }
      }
    }
  }

  stats.passed = disconnected == 0 && uncovered == 0;
  if (stats.passed) {
    diagnostics.push_back(make_diagnostic(
        kRule, Severity::kInfo, "net-connected",
        "all terminal nodes are mutually connected and the routing "
        "covers every checked (node, destination) pair",
        {{"checks", std::to_string(stats.checks)}}));
  } else if (disconnected != 0) {
    diagnostics.push_back(make_diagnostic(
        kRule, Severity::kError, "connectivity-broken",
        std::to_string(disconnected) +
            " terminal nodes cut off and " + std::to_string(uncovered) +
            " uncovered (node, destination) pairs",
        {{"disconnected", std::to_string(disconnected)},
         {"uncovered", std::to_string(uncovered)}}));
  } else {
    diagnostics.push_back(make_diagnostic(
        kRule, Severity::kWarning, "route-uncovered",
        std::to_string(uncovered) +
            " (node, destination) pairs lack a surviving out-port",
        {{"uncovered", std::to_string(uncovered)}}));
  }
  return stats;
}

}  // namespace genoc
