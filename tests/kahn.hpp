/// \file kahn.hpp
/// \brief Kahn's topological order and the longest-path ranks built on it.
///
/// No verify path needs them: (C-3) is discharged by the DFS acyclicity
/// check or a closed-form rank certificate (graph/toposort.hpp). They stay
/// as a reference (C-3) check for the toposort tests and the cycle-algorithm
/// ablation bench; header-only, so the library does not carry them.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "graph/digraph.hpp"
#include "util/require.hpp"

namespace genoc {

/// A topological order of all vertices, or std::nullopt if the graph has a
/// cycle. O(V + E), Kahn's algorithm; ties broken by vertex id so the result
/// is deterministic.
inline std::optional<std::vector<std::size_t>> topological_order(
    const Digraph& graph) {
  GENOC_REQUIRE(graph.finalized(),
                "topological_order requires a finalized graph");
  const std::size_t n = graph.vertex_count();
  std::vector<std::size_t> in_degree(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint32_t w : graph.out(v)) {
      ++in_degree[w];
    }
  }
  // Min-heap on vertex id for deterministic output.
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<std::size_t>>
      ready;
  for (std::size_t v = 0; v < n; ++v) {
    if (in_degree[v] == 0) {
      ready.push(v);
    }
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  while (!ready.empty()) {
    const std::size_t v = ready.top();
    ready.pop();
    order.push_back(v);
    for (std::uint32_t w : graph.out(v)) {
      if (--in_degree[w] == 0) {
        ready.push(w);
      }
    }
  }
  if (order.size() != n) {
    return std::nullopt;  // a cycle prevented completion
  }
  return order;
}

/// Longest-path ranks: rank[v] = length of the longest edge-path ending at v.
/// Defined only for acyclic graphs (std::nullopt otherwise). Every edge
/// (u, v) satisfies rank[u] < rank[v].
inline std::optional<std::vector<std::size_t>> longest_path_ranks(
    const Digraph& graph) {
  const auto order = topological_order(graph);
  if (!order) {
    return std::nullopt;
  }
  std::vector<std::size_t> rank(graph.vertex_count(), 0);
  for (const std::size_t v : *order) {
    for (std::uint32_t w : graph.out(v)) {
      rank[w] = std::max(rank[w], rank[v] + 1);
    }
  }
  return rank;
}

}  // namespace genoc
