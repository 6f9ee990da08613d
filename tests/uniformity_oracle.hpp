/// \file uniformity_oracle.hpp
/// \brief The sort-and-compare node-uniformity audit, kept as the test
///        oracle of the uniformity rule's name-mask kernel.
///
/// uniformity_oracle() audits each node_uniform() claim the way the rule
/// did before its mask kernel: for every sampled (node, destination) pair
/// it builds the expected out-port ids from out_mask_id() and the node's
/// existence mask, asks next_hop_ids_into() for the hop ids of every
/// in-port, sorts both vectors and compares them. It uses public APIs only,
/// runs sequentially and is built only into the test binaries.
#pragma once

#include <cstdint>
#include <vector>

#include "analyze/rule.hpp"
#include "routing/routing.hpp"
#include "topology/topology.hpp"
#include "verify/diagnostics.hpp"

namespace genoc {

/// What a destination-sampled rule must report: its probe count, its
/// violation count, and its diagnostics in emission order (the capped
/// findings, then the summary record).
struct RuleOracleResult {
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::vector<Diagnostic> diagnostics;
};

/// The deterministic destination stride of the sampled rules: visiting
/// every stride-th destination keeps count * cost_per within \p budget.
std::size_t oracle_stride(std::size_t count, std::uint64_t cost_per,
                          std::uint64_t budget);

/// The uniformity rule's result for \p routing and, when it claims
/// node-uniformity too, \p escape (nullptr for none). Field for field what
/// the rule must report: a NodeUniformRouting is not audited and yields one
/// uniformity-by-construction record; empty when neither function claims
/// the property.
RuleOracleResult uniformity_oracle(const Topology& topology,
                                   const RoutingFunction& routing,
                                   const RoutingFunction* escape,
                                   const AnalyzeOptions& options);

}  // namespace genoc
