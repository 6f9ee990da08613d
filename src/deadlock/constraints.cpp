#include "deadlock/constraints.hpp"

#include <sstream>

#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace genoc {

std::string ConstraintReport::summary() const {
  std::ostringstream os;
  os << constraint << ": " << (satisfied ? "DISCHARGED" : "VIOLATED") << " ("
     << checks << " checks, " << cpu_ms << " ms";
  if (!violations.empty()) {
    os << ", first violation: " << violations.front();
  }
  os << ")";
  return os.str();
}

namespace {

void record_violation(ConstraintReport& report, const std::string& text) {
  report.satisfied = false;
  if (report.violations.size() < ConstraintReport::kMaxViolations) {
    report.violations.push_back(text);
  }
}

}  // namespace

ConstraintReport check_c1(const RoutingFunction& routing,
                          const PortDepGraph& dep) {
  Stopwatch timer;
  ConstraintReport report;
  report.constraint = "(C-1)" + routing.name();
  report.satisfied = true;
  const Mesh2D& mesh = routing.mesh();
  for (PortId sid = 0; sid < mesh.port_count(); ++sid) {
    const Port s = mesh.port(sid);
    for (const Port& d : mesh.destinations()) {
      if (!routing.reachable(s, d)) {
        continue;
      }
      for (const Port& p : routing.next_hops(s, d)) {
        ++report.checks;
        if (!mesh.exists(p)) {
          record_violation(report, "R(" + to_string(s) + ", " + to_string(d) +
                                       ") yields non-existent port " +
                                       to_string(p));
          continue;
        }
        if (!dep.graph.has_edge(mesh.id(s), mesh.id(p))) {
          record_violation(report, "dependency (" + to_string(s) + " -> " +
                                       to_string(p) + ") for destination " +
                                       to_string(d) +
                                       " is not an edge of the graph");
        }
      }
    }
  }
  report.cpu_ms = timer.elapsed_ms();
  return report;
}

ConstraintReport check_c2(const RoutingFunction& routing,
                          const PortDepGraph& dep) {
  Stopwatch timer;
  ConstraintReport report;
  report.constraint = "(C-2)" + routing.name();
  report.satisfied = true;
  const Mesh2D& mesh = routing.mesh();
  for (const auto& [from, to] : dep.graph.edges()) {
    const Port p0 = dep.port_of(from);
    const Port p1 = dep.port_of(to);
    bool witnessed = false;
    for (const Port& d : mesh.destinations()) {
      ++report.checks;
      if (!routing.reachable(p0, d)) {
        continue;
      }
      for (const Port& q : routing.next_hops(p0, d)) {
        if (q == p1) {
          witnessed = true;
          break;
        }
      }
      if (witnessed) {
        break;
      }
    }
    if (!witnessed) {
      record_violation(report, "edge (" + to_string(p0) + " -> " +
                                   to_string(p1) +
                                   ") has no witness destination");
    }
  }
  report.cpu_ms = timer.elapsed_ms();
  return report;
}

Port xy_edge_witness(const Mesh2D& mesh, const Port& p0, const Port& p1) {
  GENOC_REQUIRE(mesh.exists(p0) && mesh.exists(p1),
                "witness endpoints must exist");
  if (p1.name == PortName::kLocal && p1.dir == Direction::kOut) {
    return p1;
  }
  if (p1.dir == Direction::kOut) {
    // p0 is an in-port turning into cardinal out-port p1: the nearest
    // destination lies just across p1's link.
    return trans(mesh.next_in(p1), PortName::kLocal, Direction::kOut);
  }
  // p0 is an out-port and p1 = next_in(p0): the nearest destination is
  // p1's own node.
  return trans(p1, PortName::kLocal, Direction::kOut);
}

ConstraintReport check_c2_xy_closed_form(const RoutingFunction& routing,
                                         const PortDepGraph& dep) {
  Stopwatch timer;
  ConstraintReport report;
  report.constraint = "(C-2)" + routing.name() + "/find_dest";
  report.satisfied = true;
  const Mesh2D& mesh = routing.mesh();
  for (const auto& [from, to] : dep.graph.edges()) {
    const Port p0 = dep.port_of(from);
    const Port p1 = dep.port_of(to);
    ++report.checks;
    const Port d = xy_edge_witness(mesh, p0, p1);
    if (!mesh.exists(d) || !routing.reachable(p0, d)) {
      record_violation(report, "find_dest witness " + to_string(d) +
                                   " for edge (" + to_string(p0) + " -> " +
                                   to_string(p1) + ") is not reachable");
      continue;
    }
    bool routes_across = false;
    for (const Port& q : routing.next_hops(p0, d)) {
      if (q == p1) {
        routes_across = true;
        break;
      }
    }
    if (!routes_across) {
      record_violation(report, "find_dest witness " + to_string(d) +
                                   " does not route " + to_string(p0) +
                                   " across edge to " + to_string(p1));
    }
  }
  report.cpu_ms = timer.elapsed_ms();
  return report;
}

ConstraintReport check_c3(const PortDepGraph& dep,
                          std::optional<CycleWitness>* cycle_out) {
  Stopwatch timer;
  ConstraintReport report;
  report.constraint = "(C-3)";
  report.satisfied = true;
  report.checks = dep.graph.vertex_count() + dep.graph.edge_count();
  const std::optional<CycleWitness> cycle = find_cycle(dep.graph);
  if (cycle) {
    std::ostringstream os;
    os << "cycle of length " << cycle->size() << ":";
    for (const std::size_t v : *cycle) {
      os << ' ' << dep.label(v);
    }
    record_violation(report, os.str());
  }
  if (cycle_out != nullptr) {
    *cycle_out = cycle;
  }
  report.cpu_ms = timer.elapsed_ms();
  return report;
}

}  // namespace genoc
