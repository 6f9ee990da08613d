/// \file turns_oracle.hpp
/// \brief The closure-row turn-conformance sweep, kept as the test oracle
///        of the `turns` rule, which reads the dependency graph instead.
///
/// turns_oracle() walks every destination in order on one thread, with
/// one closure scratch, and asks next_hop_ids_into() for the hops of each
/// reachable fabric in-port. It collects the distinct (in, out) turns, each
/// with the lowest destination index whose route takes it, and emits the
/// prohibited ones in port order under the per-code cap. Public APIs only,
/// no dependency-graph builder; built only into the test binaries.
#pragma once

#include <string>

#include "uniformity_oracle.hpp"

namespace genoc {

/// The `turns` rule's result for the grid \p routing linted against the
/// prohibited-turn set of \p discipline (a routing name with a static turn
/// discipline): checks = distinct turns, violations = distinct prohibited
/// turns. Field for field what the rule must report.
RuleOracleResult turns_oracle(const RoutingFunction& routing,
                              const std::string& discipline,
                              const AnalyzeOptions& options);

}  // namespace genoc
