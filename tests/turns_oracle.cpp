#include "turns_oracle.hpp"

#include <bit>
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
  const std::size_t stride =
      oracle_stride(dests, topo.port_count(), options.state_budget);
  const std::size_t words = routing.closure_row_words();
  ClosureRowScratch scratch;
  std::vector<PortId> hops;
  std::vector<Port> port_scratch;

  for (std::size_t d = 0; d < dests; d += stride) {
    const std::uint64_t* row = routing.closure_row(d, scratch);
    const PortId dest_id = topo.destination_id(d);
    const Port dest = mesh.port(dest_id);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const auto pid = static_cast<PortId>(w * 64 + std::countr_zero(bits));
        bits &= bits - 1;
        if (pid == dest_id || topo.dir_of(pid) != Direction::kIn) {
          continue;
        }
        const Port in = mesh.port(pid);
        if (in.name == PortName::kLocal) {
          continue;
        }
        const PortName travel = opposite(in.name);
        hops.clear();
        routing.next_hop_ids_into(pid, d, hops, port_scratch);
        ++result.checks;
        for (const PortId hop : hops) {
          if (topo.dir_of(hop) != Direction::kOut ||
              topo.node_of(hop) != topo.node_of(pid)) {
            continue;
          }
          const Port out = mesh.port(hop);
          if (out.name == PortName::kLocal ||
              !turn_prohibited(discipline, in.x, travel, out.name)) {
            continue;
          }
          ++result.violations;
          if (result.violations > options.max_findings_per_code) {
            continue;
          }
          result.diagnostics.push_back(Diagnostic{
              "turns", Severity::kError,
              out.name == opposite(travel) ? "turn-reversal"
                                           : "turn-prohibited",
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
    }
  }
  if (result.violations == 0) {
    result.diagnostics.push_back(Diagnostic{
        "turns", Severity::kInfo, "turns-conform",
        "no prohibited turn over " + std::to_string(result.checks) +
            " reachable states (" + discipline + " discipline)",
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
