// Tests for reachability helpers.
#include <gtest/gtest.h>

#include "reach.hpp"
#include "util/require.hpp"

namespace genoc {
namespace {

Digraph sample() {
  // 0 -> 1 -> 2, 0 -> 3, 4 isolated.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.finalize();
  return g;
}

TEST(Reach, MaskFromSource) {
  const Digraph g = sample();
  const auto mask = reachable_from(g, 0);
  EXPECT_EQ(mask, (std::vector<std::uint8_t>{1, 1, 1, 1, 0}));
  const auto mask1 = reachable_from(g, 1);
  EXPECT_EQ(mask1, (std::vector<std::uint8_t>{0, 1, 1, 0, 0}));
}

TEST(Reach, IsReachable) {
  const Digraph g = sample();
  EXPECT_TRUE(is_reachable(g, 0, 2));
  EXPECT_FALSE(is_reachable(g, 2, 0));
  EXPECT_TRUE(is_reachable(g, 4, 4));  // trivially reachable from itself
}

TEST(Reach, ShortestPath) {
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 5);
  g.add_edge(0, 3);
  g.add_edge(3, 5);  // shorter: 0-3-5
  g.finalize();
  const auto path = shortest_path(g, 0, 5);
  EXPECT_EQ(path, (std::vector<std::size_t>{0, 3, 5}));
  EXPECT_TRUE(shortest_path(g, 5, 0).empty());
  EXPECT_EQ(shortest_path(g, 2, 2), (std::vector<std::size_t>{2}));
}

TEST(Reach, OutOfRangeThrows) {
  const Digraph g = sample();
  EXPECT_THROW(reachable_from(g, 9), ContractViolation);
  EXPECT_THROW(shortest_path(g, 0, 9), ContractViolation);
}

}  // namespace
}  // namespace genoc
