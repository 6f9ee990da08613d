#include "uniformity_oracle.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

namespace genoc {

namespace {

Diagnostic uniformity_diagnostic(
    Severity severity, std::string code, std::string message,
    std::vector<std::pair<std::string, std::string>> witness) {
  return Diagnostic{"uniformity", severity, std::move(code),
                    std::move(message), std::move(witness)};
}

void audit(const Topology& topo, const RoutingFunction& routing,
           const char* function, const AnalyzeOptions& options,
           RuleOracleResult& result) {
  const std::size_t dests = topo.destination_count();
  const std::size_t nodes = topo.node_count();
  const std::size_t names = topo.name_count();
  const std::size_t stride =
      oracle_stride(dests, static_cast<std::uint64_t>(nodes) * names,
                    options.uniformity_budget);
  std::vector<PortId> expected;
  std::vector<PortId> actual;
  std::vector<Port> port_scratch;
  for (std::size_t d = 0; d < dests; d += stride) {
    for (std::size_t node = 0; node < nodes; ++node) {
      std::uint64_t mask =
          routing.out_mask_id(node, d) & topo.out_exists_mask(node);
      expected.clear();
      while (mask != 0) {
        const auto name_index =
            static_cast<std::size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        const PortId out = topo.slot_id(node, name_index, Direction::kOut);
        if (out != kInvalidPort) {
          expected.push_back(out);
        }
      }
      std::sort(expected.begin(), expected.end());
      for (std::size_t name_index = 0; name_index < names; ++name_index) {
        const PortId in = topo.slot_id(node, name_index, Direction::kIn);
        if (in == kInvalidPort) {
          continue;
        }
        actual.clear();
        routing.next_hop_ids_into(in, d, actual, port_scratch);
        std::sort(actual.begin(), actual.end());
        ++result.checks;
        if (actual == expected) {
          continue;
        }
        ++result.violations;
        if (result.violations > options.max_findings_per_code) {
          continue;
        }
        const std::string in_label = topo.port_label(in);
        const std::string dest_label = topo.port_label(topo.destination_id(d));
        result.diagnostics.push_back(uniformity_diagnostic(
            Severity::kError, "uniformity-violated",
            std::string(function) + " hop set from " + in_label + " toward " +
                dest_label + " differs from the node's claimed out-mask",
            {{"function", function},
             {"in_port", in_label},
             {"destination", dest_label},
             {"node", topo.node_label(node)},
             {"mask_hops", std::to_string(expected.size())},
             {"in_port_hops", std::to_string(actual.size())}}));
      }
    }
  }
}

}  // namespace

std::size_t oracle_stride(std::size_t count, std::uint64_t cost_per,
                          std::uint64_t budget) {
  const std::uint64_t total = static_cast<std::uint64_t>(count) * cost_per;
  if (count == 0 || budget == 0 || total <= budget) {
    return 1;
  }
  return static_cast<std::size_t>((total + budget - 1) / budget);
}

RuleOracleResult uniformity_oracle(const Topology& topology,
                                   const RoutingFunction& routing,
                                   const RoutingFunction* escape,
                                   const AnalyzeOptions& options) {
  RuleOracleResult result;
  // The by-construction records come first, then the audits.
  std::vector<std::pair<const RoutingFunction*, const char*>> audited;
  for (const auto& [function, role] :
       {std::pair<const RoutingFunction*, const char*>{&routing, "routing"},
        {escape, "escape"}}) {
    if (function == nullptr || !function->node_uniform()) {
      continue;
    }
    if (dynamic_cast<const NodeUniformRouting*>(function) == nullptr) {
      audited.emplace_back(function, role);
      continue;
    }
    result.diagnostics.push_back(uniformity_diagnostic(
        Severity::kInfo, "uniformity-by-construction",
        std::string(role) + " " + function->name() +
            " is node-uniform by construction: its hops derive from "
            "node_out_mask",
        {{"function", role}}));
  }
  if (audited.empty()) {
    return result;
  }
  for (const auto& [function, role] : audited) {
    audit(topology, *function, role, options, result);
  }
  if (result.violations == 0) {
    result.diagnostics.push_back(uniformity_diagnostic(
        Severity::kInfo, "uniformity-audited",
        "node-uniformity claim holds on " + std::to_string(result.checks) +
            " sampled (in-port, destination) pairs",
        {{"pairs", std::to_string(result.checks)}}));
  } else {
    result.diagnostics.push_back(uniformity_diagnostic(
        Severity::kError, "uniformity-refuted",
        std::to_string(result.violations) +
            " (in-port, destination) pairs contradict a node_uniform() "
            "claim — the node-granular sweeps would be corrupt",
        {{"violations", std::to_string(result.violations)}}));
  }
  return result;
}

}  // namespace genoc
