#include "turns_oracle.hpp"

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "routing/turns.hpp"
#include "topology/mesh.hpp"

namespace genoc {

RuleOracleResult turns_oracle(const RoutingFunction& routing,
                              const std::string& discipline,
                              const AnalyzeOptions& options) {
  RuleOracleResult result;
  const Mesh2D& mesh = routing.mesh();
  const Topology& topo = routing.topology();
  const std::size_t dests = topo.destination_count();
  const std::size_t names = topo.name_count();
  const std::size_t words = routing.closure_row_words();
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  // lowest[in * names + out name]: the first destination taking the turn.
  std::vector<std::size_t> lowest(topo.port_count() * names, kNone);
  ClosureRowScratch scratch;
  std::vector<PortId> hops;
  std::vector<Port> port_scratch;

  for (std::size_t d = 0; d < dests; ++d) {
    const std::uint64_t* row = routing.closure_row(d, scratch);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const auto pid = static_cast<PortId>(w * 64 + std::countr_zero(bits));
        bits &= bits - 1;
        if (topo.dir_of(pid) != Direction::kIn ||
            mesh.port(pid).name == PortName::kLocal) {
          continue;
        }
        hops.clear();
        routing.next_hop_ids_into(pid, d, hops, port_scratch);
        for (const PortId hop : hops) {
          if (topo.dir_of(hop) != Direction::kOut ||
              topo.node_of(hop) != topo.node_of(pid) ||
              mesh.port(hop).name == PortName::kLocal) {
            continue;
          }
          std::size_t& first = lowest[pid * names + topo.name_of(hop)];
          if (first == kNone) {
            first = d;
          }
        }
      }
    }
  }

  for (PortId pid = 0; pid < topo.port_count(); ++pid) {
    for (std::size_t name = 0; name < names; ++name) {
      const std::size_t d = lowest[pid * names + name];
      if (d == kNone) {
        continue;
      }
      ++result.checks;
      const Port in = mesh.port(pid);
      const PortName travel = opposite(in.name);
      const Port out =
          mesh.port(topo.slot_id(topo.node_of(pid), name, Direction::kOut));
      if (!turn_prohibited(discipline, in.x, travel, out.name)) {
        continue;
      }
      ++result.violations;
      if (result.violations > options.max_findings_per_code) {
        continue;
      }
      const Port dest = mesh.port(topo.destination_id(d));
      result.diagnostics.push_back(Diagnostic{
          "turns", Severity::kError,
          out.name == opposite(travel) ? "turn-reversal" : "turn-prohibited",
          std::string("prohibited ") + port_name_letter(travel) + "->" +
              port_name_letter(out.name) + " turn at " + to_string(in) +
              " routing to " + to_string(dest),
          {{"in_port", to_string(in)},
           {"out_port", to_string(out)},
           {"destination", to_string(dest)},
           {"travel", std::string(1, port_name_letter(travel))},
           {"column", std::to_string(in.x)}}});
    }
  }
  if (result.violations == 0) {
    result.diagnostics.push_back(Diagnostic{
        "turns", Severity::kInfo, "turns-conform",
        "no prohibited turn among the " + std::to_string(result.checks) +
            " turn edges of the dependency graph (" + discipline +
            " discipline)",
        {{"states", std::to_string(result.checks)},
         {"discipline", discipline}}});
  } else {
    result.diagnostics.push_back(Diagnostic{
        "turns", Severity::kError, "turns-violated",
        std::to_string(result.violations) + " prohibited turns emitted (" +
            discipline + " discipline)",
        {{"violations", std::to_string(result.violations)}}});
  }
  return result;
}

}  // namespace genoc
