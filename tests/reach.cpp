#include "reach.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "util/require.hpp"

namespace genoc {

std::vector<std::uint8_t> reachable_from(const Digraph& graph,
                                         std::size_t source) {
  GENOC_REQUIRE(graph.finalized(), "reachable_from requires a finalized graph");
  GENOC_REQUIRE(source < graph.vertex_count(), "source out of range");
  std::vector<std::uint8_t> seen(graph.vertex_count(), 0);
  std::vector<std::size_t> frontier;
  frontier.reserve(64);
  seen[source] = 1;
  frontier.push_back(source);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::size_t v = frontier[head];
    for (std::uint32_t w : graph.out(v)) {
      if (seen[w] == 0) {
        seen[w] = 1;
        frontier.push_back(w);
      }
    }
  }
  return seen;
}

bool is_reachable(const Digraph& graph, std::size_t source,
                  std::size_t target) {
  GENOC_REQUIRE(target < graph.vertex_count(), "target out of range");
  return reachable_from(graph, source)[target] != 0;
}

std::vector<std::size_t> shortest_path(const Digraph& graph,
                                       std::size_t source,
                                       std::size_t target) {
  GENOC_REQUIRE(graph.finalized(), "shortest_path requires a finalized graph");
  GENOC_REQUIRE(source < graph.vertex_count() && target < graph.vertex_count(),
                "endpoint out of range");
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> parent(graph.vertex_count(), kNone);
  std::queue<std::size_t> frontier;
  parent[source] = source;
  frontier.push(source);
  while (!frontier.empty() && parent[target] == kNone) {
    const std::size_t v = frontier.front();
    frontier.pop();
    for (std::uint32_t w : graph.out(v)) {
      if (parent[w] == kNone) {
        parent[w] = v;
        frontier.push(w);
      }
    }
  }
  if (parent[target] == kNone) {
    return {};
  }
  std::vector<std::size_t> path;
  for (std::size_t v = target;; v = parent[v]) {
    path.push_back(v);
    if (v == source) {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace genoc
