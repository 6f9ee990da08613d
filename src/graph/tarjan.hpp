/// \file tarjan.hpp
/// \brief Tarjan strongly-connected-components, used by the Taktak-style
///        adaptive-routing deadlock detector (paper Sec. VIII) and as the
///        test oracle of the (C-3) acyclicity pass, which is find_cycle()'s
///        DFS (graph/cycle.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"

namespace genoc {

/// Result of an SCC decomposition.
struct SccResult {
  /// component[v] = id of v's SCC. Ids follow the order in which Tarjan
  /// completes the components, a reverse topological order of the
  /// condensation: an edge u->v between different SCCs implies
  /// component[u] > component[v].
  std::vector<std::size_t> component;
  /// components[i] = the vertices of SCC i.
  std::vector<std::vector<std::size_t>> components;
};

/// Computes the SCCs of \p graph with Tarjan's algorithm (iterative,
/// O(V + E)). Requires a finalized graph.
SccResult tarjan_scc(const Digraph& graph);

/// True iff some SCC is "non-trivial": it has >= 2 vertices, or is a single
/// vertex with a self-loop. A digraph has a cycle iff this holds.
bool has_nontrivial_scc(const Digraph& graph);

/// The condensation: one vertex per SCC of \p graph, with an edge between
/// distinct components whenever some original edge crosses them. Always a
/// DAG.
Digraph condensation(const Digraph& graph, const SccResult& scc);

}  // namespace genoc
