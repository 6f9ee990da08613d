// Tests for the paper's Rxy (Sec. V.3) and its closed-form reachability
// relation, cross-validated against the semantic route closure.
#include <gtest/gtest.h>

#include "routing/route.hpp"
#include "routing/xy.hpp"

namespace genoc {
namespace {

TEST(XYRouting, FollowsThePaperCaseStructure) {
  const Mesh2D mesh(4, 4);
  const XYRouting xy(mesh);
  const Port dest = mesh.local_out(3, 2);

  // dir(p) = OUT -> next_in(p).
  const Port e_out{1, 1, PortName::kEast, Direction::kOut};
  ASSERT_EQ(xy.next_hops(e_out, dest).size(), 1u);
  EXPECT_EQ(xy.next_hops(e_out, dest)[0], next_in(e_out));

  // x(d) > x(p) -> East out.
  const Port l_in = mesh.local_in(1, 2);
  EXPECT_EQ(xy.next_hops(l_in, dest)[0],
            (Port{1, 2, PortName::kEast, Direction::kOut}));

  // x(d) < x(p) -> West out.
  EXPECT_EQ(xy.next_hops(mesh.local_in(3, 0), mesh.local_out(0, 0))[0],
            (Port{3, 0, PortName::kWest, Direction::kOut}));

  // Column correct, y(d) < y(p) -> North out (decreasing y).
  EXPECT_EQ(xy.next_hops(mesh.local_in(3, 3), dest)[0],
            (Port{3, 3, PortName::kNorth, Direction::kOut}));

  // Column correct, y(d) > y(p) -> South out.
  EXPECT_EQ(xy.next_hops(mesh.local_in(3, 0), dest)[0],
            (Port{3, 0, PortName::kSouth, Direction::kOut}));

  // At destination node -> Local out.
  EXPECT_EQ(xy.next_hops(mesh.local_in(3, 2), dest)[0], dest);

  // Delivered (Local OUT) -> no hops.
  EXPECT_TRUE(xy.next_hops(dest, dest).empty());
}

TEST(XYRouting, XBeforeY) {
  const Mesh2D mesh(4, 4);
  const XYRouting xy(mesh);
  // From (0,0) to (2,2): route must finish all x-hops before any y-hop.
  const Route route =
      compute_route(xy, mesh.local_in(0, 0), mesh.local_out(2, 2));
  bool seen_vertical = false;
  for (const Port& p : route) {
    if (p.name == PortName::kNorth || p.name == PortName::kSouth) {
      seen_vertical = true;
    }
    if (seen_vertical) {
      EXPECT_NE(p.name, PortName::kEast);
      EXPECT_NE(p.name, PortName::kWest);
    }
  }
  EXPECT_TRUE(seen_vertical);
}

TEST(XYRouting, RoutesAreMinimalAndWellFormed) {
  const Mesh2D mesh(5, 3);
  const XYRouting xy(mesh);
  for (const NodeCoord s : mesh.nodes()) {
    for (const NodeCoord d : mesh.nodes()) {
      const Port from = mesh.local_in(s.x, s.y);
      const Port to = mesh.local_out(d.x, d.y);
      const Route route = compute_route(xy, from, to);
      EXPECT_EQ(route.size(), minimal_route_length(from, to));
      EXPECT_TRUE(is_valid_route(xy, route, from, to));
      // Ports alternate IN/OUT along the route.
      for (std::size_t i = 0; i < route.size(); ++i) {
        EXPECT_EQ(route[i].dir,
                  i % 2 == 0 ? Direction::kIn : Direction::kOut);
      }
    }
  }
}

TEST(XYRouting, IsDeterministicEverywhereReachable) {
  const Mesh2D mesh(4, 4);
  const XYRouting xy(mesh);
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    for (const Port& d : mesh.destinations()) {
      if (!xy.reachable(p, d)) {
        continue;
      }
      if (p == d) {
        EXPECT_TRUE(xy.next_hops(p, d).empty());
        continue;
      }
      EXPECT_EQ(xy.next_hops(p, d).size(), 1u)
          << to_string(p) << " -> " << to_string(d);
    }
  }
  EXPECT_TRUE(xy.is_deterministic());
  EXPECT_TRUE(xy.is_minimal());
}

TEST(XYRouting, ReachabilityClosedFormCases) {
  const Mesh2D mesh(4, 4);
  const XYRouting xy(mesh);
  const auto L = [&](std::int32_t x, std::int32_t y) {
    return mesh.local_out(x, y);
  };
  // Local IN reaches everything.
  for (const Port& d : mesh.destinations()) {
    EXPECT_TRUE(xy.reachable(mesh.local_in(2, 1), d));
  }
  // West IN travels east: x(d) >= x(s), any y.
  const Port w_in{2, 1, PortName::kWest, Direction::kIn};
  EXPECT_TRUE(xy.reachable(w_in, L(2, 3)));
  EXPECT_TRUE(xy.reachable(w_in, L(3, 0)));
  EXPECT_FALSE(xy.reachable(w_in, L(1, 1)));
  // East IN travels west.
  const Port e_in{2, 1, PortName::kEast, Direction::kIn};
  EXPECT_TRUE(xy.reachable(e_in, L(0, 3)));
  EXPECT_FALSE(xy.reachable(e_in, L(3, 1)));
  // North IN holds southbound traffic: same column, y(d) >= y.
  const Port n_in{2, 1, PortName::kNorth, Direction::kIn};
  EXPECT_TRUE(xy.reachable(n_in, L(2, 3)));
  EXPECT_TRUE(xy.reachable(n_in, L(2, 1)));
  EXPECT_FALSE(xy.reachable(n_in, L(2, 0)));
  EXPECT_FALSE(xy.reachable(n_in, L(1, 2)));
  // Out-ports commit to the hop.
  const Port e_out{2, 1, PortName::kEast, Direction::kOut};
  EXPECT_TRUE(xy.reachable(e_out, L(3, 1)));
  EXPECT_FALSE(xy.reachable(e_out, L(2, 1)));
  // Local OUT reaches only itself.
  EXPECT_TRUE(xy.reachable(L(2, 1), L(2, 1)));
  EXPECT_FALSE(xy.reachable(L(2, 1), L(2, 2)));
  // Destinations must be existing Local OUT ports.
  EXPECT_FALSE(xy.reachable(w_in, Port{2, 2, PortName::kEast, Direction::kOut}));
  EXPECT_FALSE(xy.reachable(w_in, Port{9, 9, PortName::kLocal, Direction::kOut}));
}

// The closed-form s R d must coincide with the semantic route closure
// ("some route of Rxy passes through s on its way to d") on every mesh.
class XYReachabilitySweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(XYReachabilitySweep, ClosedFormEqualsRouteClosure) {
  const auto [w, h] = GetParam();
  const Mesh2D mesh(w, h);
  const XYRouting xy(mesh);
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    for (const Port& d : mesh.destinations()) {
      EXPECT_EQ(xy.reachable(p, d), xy.closure_reachable(p, d))
          << to_string(p) << " R " << to_string(d) << " on " << w << "x" << h;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, XYReachabilitySweep,
                         ::testing::Values(std::pair{1, 2}, std::pair{2, 1},
                                           std::pair{2, 2}, std::pair{3, 2},
                                           std::pair{2, 3}, std::pair{3, 3},
                                           std::pair{4, 4}, std::pair{5, 3},
                                           std::pair{1, 6}, std::pair{6, 1}));

}  // namespace
}  // namespace genoc
