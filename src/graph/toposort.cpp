#include "graph/toposort.hpp"

#include <string>

#include "util/require.hpp"

namespace genoc {

bool verify_rank_certificate(const Digraph& graph,
                             const std::vector<std::int64_t>& rank) {
  return !find_rank_violation(graph, rank).has_value();
}

void require_rank_certificate(const Digraph& graph,
                              const std::vector<std::int64_t>& rank) {
  const auto violation = find_rank_violation(graph, rank);
  GENOC_REQUIRE(!violation.has_value(),
                "rank certificate rejected: edge " +
                    std::to_string(violation ? violation->first : 0) + " -> " +
                    std::to_string(violation ? violation->second : 0) +
                    " does not increase the rank");
}

std::optional<std::pair<std::size_t, std::size_t>> find_rank_violation(
    const Digraph& graph, const std::vector<std::int64_t>& rank) {
  GENOC_REQUIRE(graph.finalized(),
                "rank verification requires a finalized graph");
  GENOC_REQUIRE(rank.size() == graph.vertex_count(),
                "rank vector size must equal vertex count");
  for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
    for (std::uint32_t w : graph.out(v)) {
      if (!(rank[v] < rank[w])) {
        return std::make_pair(v, static_cast<std::size_t>(w));
      }
    }
  }
  return std::nullopt;
}

}  // namespace genoc
