// Tests for the adaptive routing extensions (paper Sec. IX future work):
// YX, West-First, North-Last, Negative-First, Odd-Even and the
// fully-adaptive baseline.
#include <gtest/gtest.h>

#include <memory>

#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/negative_first.hpp"
#include "routing/north_last.hpp"
#include "routing/odd_even.hpp"
#include "routing/route.hpp"
#include "routing/west_first.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"

namespace genoc {
namespace {

std::size_t node_distance(const Port& a, const Port& b) {
  return manhattan_distance(a, b);
}

/// Shared property: every hop of a minimal routing function makes progress.
void expect_minimal_and_productive(const RoutingFunction& routing) {
  const Mesh2D& mesh = routing.mesh();
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    for (const Port& d : mesh.destinations()) {
      if (!routing.reachable(p, d)) {
        continue;
      }
      for (const Port& q : routing.next_hops(p, d)) {
        ASSERT_TRUE(mesh.exists(q))
            << routing.name() << ": R(" << to_string(p) << ", "
            << to_string(d) << ") -> " << to_string(q);
        // Crossing a link (OUT -> IN) strictly reduces distance; switching
        // inside a node keeps it unchanged.
        if (p.dir == Direction::kOut) {
          EXPECT_LT(node_distance(q, d), node_distance(p, d));
        } else {
          EXPECT_EQ(node_distance(q, d), node_distance(p, d));
        }
      }
    }
  }
}

TEST(AdaptiveRouting, AllFunctionsAreMinimalAndProductive) {
  const Mesh2D mesh(4, 3);
  expect_minimal_and_productive(XYRouting(mesh));
  expect_minimal_and_productive(YXRouting(mesh));
  expect_minimal_and_productive(WestFirstRouting(mesh));
  expect_minimal_and_productive(NorthLastRouting(mesh));
  expect_minimal_and_productive(NegativeFirstRouting(mesh));
  expect_minimal_and_productive(OddEvenRouting(mesh));
  expect_minimal_and_productive(FullyAdaptiveRouting(mesh));
}

TEST(AdaptiveRouting, EveryRouteTerminatesAtTheDestination) {
  const Mesh2D mesh(4, 4);
  const std::vector<std::unique_ptr<RoutingFunction>> functions = [&] {
    std::vector<std::unique_ptr<RoutingFunction>> fs;
    fs.push_back(std::make_unique<WestFirstRouting>(mesh));
    fs.push_back(std::make_unique<NorthLastRouting>(mesh));
    fs.push_back(std::make_unique<NegativeFirstRouting>(mesh));
    fs.push_back(std::make_unique<OddEvenRouting>(mesh));
    fs.push_back(std::make_unique<FullyAdaptiveRouting>(mesh));
    return fs;
  }();
  for (const auto& routing : functions) {
    EXPECT_FALSE(routing->is_deterministic());
    for (const NodeCoord s : mesh.nodes()) {
      for (const NodeCoord d : mesh.nodes()) {
        const Port from = mesh.local_in(s.x, s.y);
        const Port to = mesh.local_out(d.x, d.y);
        const auto routes = enumerate_routes(*routing, from, to, 64);
        ASSERT_FALSE(routes.empty()) << routing->name();
        for (const Route& r : routes) {
          EXPECT_EQ(r.size(), minimal_route_length(from, to))
              << routing->name();
          EXPECT_TRUE(is_valid_route(*routing, r, from, to));
        }
      }
    }
  }
}

TEST(AdaptiveRouting, WestFirstTakesWestHopsFirst) {
  const Mesh2D mesh(4, 4);
  const WestFirstRouting wf(mesh);
  const Port from = mesh.local_in(3, 0);
  const Port to = mesh.local_out(0, 3);
  for (const Route& r : enumerate_routes(wf, from, to, 64)) {
    bool west_phase_over = false;
    for (const Port& p : r) {
      if (p.name != PortName::kWest && p.dir == Direction::kOut &&
          p.name != PortName::kLocal) {
        west_phase_over = true;
      }
      if (p.name == PortName::kWest && p.dir == Direction::kOut) {
        EXPECT_FALSE(west_phase_over) << "west hop after non-west hop";
      }
    }
  }
}

TEST(AdaptiveRouting, NorthLastNeverLeavesNorth) {
  const Mesh2D mesh(4, 4);
  const NorthLastRouting nl(mesh);
  const Port from = mesh.local_in(0, 3);
  const Port to = mesh.local_out(3, 0);  // needs east + north
  for (const Route& r : enumerate_routes(nl, from, to, 64)) {
    bool north_started = false;
    for (const Port& p : r) {
      if (p.name == PortName::kNorth && p.dir == Direction::kOut) {
        north_started = true;
      } else if (north_started && p.dir == Direction::kOut &&
                 p.name != PortName::kLocal) {
        FAIL() << "turn out of North in " << to_string(p);
      }
    }
    EXPECT_TRUE(north_started);
  }
}

TEST(AdaptiveRouting, NegativeFirstOrdersPhases) {
  const Mesh2D mesh(4, 4);
  const NegativeFirstRouting nf(mesh);
  const Port from = mesh.local_in(2, 1);
  const Port to = mesh.local_out(1, 3);  // needs West (negative) + South
  for (const Route& r : enumerate_routes(nf, from, to, 64)) {
    bool positive_started = false;
    for (const Port& p : r) {
      if (p.dir != Direction::kOut || p.name == PortName::kLocal) {
        continue;
      }
      const bool negative =
          p.name == PortName::kWest || p.name == PortName::kNorth;
      if (!negative) {
        positive_started = true;
      } else {
        EXPECT_FALSE(positive_started) << "negative hop after positive hop";
      }
    }
  }
}

TEST(AdaptiveRouting, OddEvenRestrictsTurnsByColumnParity) {
  const Mesh2D mesh(5, 4);
  const OddEvenRouting oe(mesh);
  for (const NodeCoord s : mesh.nodes()) {
    for (const NodeCoord d : mesh.nodes()) {
      const Port from = mesh.local_in(s.x, s.y);
      const Port to = mesh.local_out(d.x, d.y);
      for (const Route& r : enumerate_routes(oe, from, to, 128)) {
        for (std::size_t i = 0; i + 1 < r.size(); ++i) {
          const Port& a = r[i];
          const Port& b = r[i + 1];
          if (a.dir != Direction::kIn || b.dir != Direction::kOut) {
            continue;
          }
          // Rule 1/2 of the Odd-Even turn model: EN/ES turns (eastbound
          // packet starting vertical movement) only in odd columns; NW/SW
          // turns (vertical packet heading west) only in even columns.
          const bool en_es = a.name == PortName::kWest &&
                             (b.name == PortName::kNorth ||
                              b.name == PortName::kSouth);
          EXPECT_FALSE(en_es && a.x % 2 == 0)
              << "EN/ES turn at even column " << to_string(a);
          const bool nw_sw = (a.name == PortName::kNorth ||
                              a.name == PortName::kSouth) &&
                             b.name == PortName::kWest;
          EXPECT_FALSE(nw_sw && a.x % 2 != 0)
              << "NW/SW turn at odd column " << to_string(a);
        }
      }
    }
  }
}

TEST(AdaptiveRouting, FullyAdaptiveOffersAllProductiveDirections) {
  const Mesh2D mesh(4, 4);
  const FullyAdaptiveRouting fa(mesh);
  const Port p = mesh.local_in(1, 1);
  const Port d = mesh.local_out(3, 3);  // east + south both productive
  const auto hops = fa.next_hops(p, d);
  EXPECT_EQ(hops.size(), 2u);
  // Number of minimal routes from (0,0) to (2,2) at node level is
  // C(4,2) = 6 — the port-level enumeration matches.
  const auto routes = enumerate_routes(fa, mesh.local_in(0, 0),
                                       mesh.local_out(2, 2), 100);
  EXPECT_EQ(routes.size(), 6u);
}

TEST(AdaptiveRouting, DeadlockVerdictsAcrossTheFamily) {
  // The punchline table of the extension: all turn-model functions are
  // deadlock-free; unrestricted adaptivity is not.
  const Mesh2D mesh(4, 4);
  EXPECT_TRUE(is_acyclic(build_dep_graph(XYRouting(mesh)).graph));
  EXPECT_TRUE(is_acyclic(build_dep_graph(YXRouting(mesh)).graph));
  EXPECT_TRUE(is_acyclic(build_dep_graph(WestFirstRouting(mesh)).graph));
  EXPECT_TRUE(is_acyclic(build_dep_graph(NorthLastRouting(mesh)).graph));
  EXPECT_TRUE(is_acyclic(build_dep_graph(NegativeFirstRouting(mesh)).graph));
  EXPECT_TRUE(is_acyclic(build_dep_graph(OddEvenRouting(mesh)).graph));
  EXPECT_FALSE(is_acyclic(build_dep_graph(FullyAdaptiveRouting(mesh)).graph));
}

TEST(YXRouting, ReachabilityClosedFormEqualsClosure) {
  for (const auto& [w, h] : {std::pair{2, 2}, std::pair{3, 3}, std::pair{4, 2}}) {
    const Mesh2D mesh(w, h);
    const YXRouting yx(mesh);
    for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
      const Port p = mesh.port(pid);
      for (const Port& d : mesh.destinations()) {
        EXPECT_EQ(yx.reachable(p, d), yx.closure_reachable(p, d))
            << to_string(p) << " R " << to_string(d);
      }
    }
  }
}

TEST(YXRouting, YBeforeX) {
  const Mesh2D mesh(4, 4);
  const YXRouting yx(mesh);
  const Route route =
      compute_route(yx, mesh.local_in(0, 0), mesh.local_out(2, 2));
  bool seen_horizontal = false;
  for (const Port& p : route) {
    if (p.name == PortName::kEast || p.name == PortName::kWest) {
      seen_horizontal = true;
    }
    if (seen_horizontal) {
      EXPECT_NE(p.name, PortName::kNorth);
      EXPECT_NE(p.name, PortName::kSouth);
    }
  }
  EXPECT_TRUE(seen_horizontal);
}

}  // namespace
}  // namespace genoc
