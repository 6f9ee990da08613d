/// \file cycle.hpp
/// \brief Cycle detection with explicit witnesses.
///
/// Theorem 1 of the paper states that a routing function is deadlock-free iff
/// its port dependency graph has no cycle. Constraint (C-3) is therefore a
/// cycle search; this module provides the linear-time DFS search the paper's
/// Section VII refers to, returning the cycle itself so that the witness
/// construction (cycle -> concrete deadlock configuration) can run on it.
/// The DFS is the verify pipeline's one acyclicity pass at every thread
/// count: it is sequential, so verdict and witness never depend on the pool.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace genoc {

/// A cycle witness: the vertex sequence v0 -> v1 -> ... -> vk -> v0.
/// The closing edge back to front() is implicit (not repeated).
using CycleWitness = std::vector<std::size_t>;

/// Finds some cycle via iterative DFS (white/grey/black colouring).
/// Returns std::nullopt iff the graph is acyclic. O(V + E).
///
/// With \p rank, an acyclic result also fills it with the DFS's reverse
/// finish order (rank[v] = V - 1 - finish index of v): every edge (u, v)
/// has rank[u] < rank[v], the topological rank certificate
/// verify_rank_certificate() checks. Left unspecified when a cycle is found.
std::optional<CycleWitness> find_cycle(const Digraph& graph,
                                       std::vector<std::int64_t>* rank =
                                           nullptr);

/// Verifies that \p cycle is a genuine cycle of \p graph: non-empty, every
/// consecutive pair (and the closing pair) is an edge, vertices distinct.
bool is_valid_cycle(const Digraph& graph, const CycleWitness& cycle);

/// Convenience: true iff the graph contains no cycle.
bool is_acyclic(const Digraph& graph);

}  // namespace genoc
