/// \file reach.hpp
/// \brief Reachability queries on directed graphs. No library module
///        calls them, so they live next to their tests (test_reach).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace genoc {

/// Vertices reachable from \p source (including source itself), as a flat
/// 0/1 mask. std::vector<std::uint8_t> rather than std::vector<bool>: the
/// byte-per-vertex layout plus an index-based frontier is the same
/// constant-factor pattern the per-destination route sweeps use, and it
/// avoids the proxy-reference bit fiddling on the BFS hot path. The mask
/// feeds Digraph::induced() directly (same byte-mask convention).
std::vector<std::uint8_t> reachable_from(const Digraph& graph,
                                         std::size_t source);

/// True iff \p target is reachable from \p source (BFS, O(V + E)).
bool is_reachable(const Digraph& graph, std::size_t source, std::size_t target);

/// A shortest path (by hop count) from source to target, empty if none.
/// The returned sequence starts with source and ends with target.
std::vector<std::size_t> shortest_path(const Digraph& graph,
                                       std::size_t source, std::size_t target);

}  // namespace genoc
