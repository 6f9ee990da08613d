/// \file turns_oracle.hpp
/// \brief The sequential turn-conformance sweep, kept as the test oracle of
///        the destination-sharded `turns` rule.
///
/// turns_oracle() walks the sampled destinations in order on one thread,
/// with one closure scratch, and emits findings as it meets them under the
/// per-code cap, as the rule did before its shard-and-merge. Public APIs
/// only; built only into the test binaries.
#pragma once

#include <string>

#include "uniformity_oracle.hpp"

namespace genoc {

/// The `turns` rule's result for the grid \p routing linted against the
/// prohibited-turn set of \p discipline (a routing name with a static turn
/// discipline). Field for field what the rule must report.
RuleOracleResult turns_oracle(const RoutingFunction& routing,
                              const std::string& discipline,
                              const AnalyzeOptions& options);

}  // namespace genoc
