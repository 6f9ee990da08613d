/// \file connectivity_oracle.hpp
/// \brief The connectivity rule as it read the faulted grid itself, kept as
///        the test oracle of the grid-free rule.
///
/// It walks the faulted topology's link table (a BFS per failed link, the
/// full BFS when the network splits) and asks out_mask_id() of every
/// fault-endpoint node toward every destination. The production rule reads
/// only the grid shape, the fault list and an unfaulted routing; tests
/// compare the two diagnostic lists and check counts whole. Built only into
/// the test binaries.
#pragma once

#include <vector>

#include "analyze/rule.hpp"

namespace genoc {

/// Runs the connectivity rule's old body over \p topology (the faulted
/// grid, or any topology) and \p routing, appending its findings to
/// \p diagnostics in rule order; returns the rule's stats (timings unset).
StageStats connectivity_oracle(const Topology& topology,
                               const RoutingFunction& routing,
                               const AnalyzeOptions& options,
                               std::vector<Diagnostic>& diagnostics);

}  // namespace genoc
