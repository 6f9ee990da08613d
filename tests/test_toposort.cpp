// Tests for topological orders and rank certificates — the machinery of the
// executable flow argument for (C-3).
#include <gtest/gtest.h>

#include "graph/toposort.hpp"
#include "kahn.hpp"
#include "util/require.hpp"

namespace genoc {
namespace {

Digraph diamond() {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  g.finalize();
  return g;
}

TEST(Toposort, OrderRespectsEdges) {
  const Digraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order->size(); ++i) {
    position[(*order)[i]] = i;
  }
  for (const auto& [from, to] : g.edges()) {
    EXPECT_LT(position[from], position[to]);
  }
}

TEST(Toposort, DeterministicTieBreaking) {
  Digraph g(3);  // no edges: order must be 0,1,2
  g.finalize();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Toposort, CycleYieldsNullopt) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.finalize();
  EXPECT_FALSE(topological_order(g).has_value());
  EXPECT_FALSE(longest_path_ranks(g).has_value());
}

TEST(Toposort, LongestPathRanks) {
  const Digraph g = diamond();
  const auto rank = longest_path_ranks(g);
  ASSERT_TRUE(rank.has_value());
  EXPECT_EQ((*rank)[0], 0u);
  EXPECT_EQ((*rank)[1], 1u);
  EXPECT_EQ((*rank)[2], 1u);
  EXPECT_EQ((*rank)[3], 2u);
}

TEST(RankCertificate, AcceptsValidRanks) {
  const Digraph g = diamond();
  EXPECT_TRUE(verify_rank_certificate(g, {0, 1, 1, 2}));
  EXPECT_TRUE(verify_rank_certificate(g, {-5, 0, 7, 100}));
}

TEST(RankCertificate, RejectsViolations) {
  const Digraph g = diamond();
  EXPECT_FALSE(verify_rank_certificate(g, {0, 0, 1, 2}));  // edge 0->1 flat
  const auto violation = find_rank_violation(g, {0, 0, 1, 2});
  ASSERT_TRUE(violation.has_value());
  using Edge = std::pair<std::size_t, std::size_t>;
  EXPECT_EQ(*violation, (Edge{0, 1}));
}

TEST(RankCertificate, NoValidRankForCyclicGraph) {
  // Any rank assignment must fail on some edge of a cycle.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.finalize();
  EXPECT_FALSE(verify_rank_certificate(g, {0, 1, 2}));
  EXPECT_FALSE(verify_rank_certificate(g, {2, 1, 0}));
}

TEST(RankCertificate, SizeMismatchThrows) {
  const Digraph g = diamond();
  EXPECT_THROW(verify_rank_certificate(g, {0, 1}), ContractViolation);
}

}  // namespace
}  // namespace genoc
