// Tests for the parametric HERMES mesh (paper Fig. 1): port existence at
// boundaries, dense id mapping, and node/port censuses.
#include <gtest/gtest.h>

#include "topology/mesh.hpp"
#include "util/require.hpp"

namespace genoc {
namespace {

// Expected number of existing ports: every node has 2 Local ports; each
// cardinal direction contributes 2 ports (IN and OUT) on each side of each
// internal link. A W x H mesh has W*(H-1) vertical and (W-1)*H horizontal
// links; each link has 2 ports at both ends (one IN, one OUT per end) -> 4.
std::size_t expected_port_count(std::int32_t w, std::int32_t h) {
  const std::size_t nodes = static_cast<std::size_t>(w) * h;
  const std::size_t links = static_cast<std::size_t>(w) * (h - 1) +
                            static_cast<std::size_t>(w - 1) * h;
  return 2 * nodes + 4 * links;
}

TEST(Mesh, RejectsDegenerateDimensions) {
  EXPECT_THROW(Mesh2D(0, 3), ContractViolation);
  EXPECT_THROW(Mesh2D(3, 0), ContractViolation);
  EXPECT_THROW(Mesh2D(1, 1), ContractViolation);
  EXPECT_NO_THROW(Mesh2D(1, 2));
  EXPECT_NO_THROW(Mesh2D(2, 1));
}

TEST(Mesh, PortCensusMatchesClosedForm) {
  for (std::int32_t w = 1; w <= 6; ++w) {
    for (std::int32_t h = 1; h <= 6; ++h) {
      if (w * h < 2) {
        continue;
      }
      const Mesh2D mesh(w, h);
      EXPECT_EQ(mesh.port_count(), expected_port_count(w, h))
          << w << "x" << h;
      EXPECT_EQ(mesh.node_count(), static_cast<std::size_t>(w) * h);
    }
  }
}

TEST(Mesh, TwoByTwoHasTwentyFourPorts) {
  // Each 2x2 node has L(2) + two cardinal directions (4 ports) = 6.
  const Mesh2D mesh(2, 2);
  EXPECT_EQ(mesh.port_count(), 24u);
}

TEST(Mesh, BoundaryPortsDoNotExist) {
  const Mesh2D mesh(3, 3);
  // North row (y = 0) has no North ports; south row none South; etc.
  EXPECT_FALSE(mesh.exists(Port{1, 0, PortName::kNorth, Direction::kIn}));
  EXPECT_FALSE(mesh.exists(Port{1, 0, PortName::kNorth, Direction::kOut}));
  EXPECT_FALSE(mesh.exists(Port{1, 2, PortName::kSouth, Direction::kOut}));
  EXPECT_FALSE(mesh.exists(Port{0, 1, PortName::kWest, Direction::kIn}));
  EXPECT_FALSE(mesh.exists(Port{2, 1, PortName::kEast, Direction::kOut}));
  // Interior node has all ten ports.
  for (const PortName name : {PortName::kEast, PortName::kWest,
                              PortName::kNorth, PortName::kSouth,
                              PortName::kLocal}) {
    for (const Direction d : {Direction::kIn, Direction::kOut}) {
      EXPECT_TRUE(mesh.exists(Port{1, 1, name, d}));
    }
  }
  // Local ports exist everywhere.
  for (const NodeCoord n : mesh.nodes()) {
    EXPECT_TRUE(mesh.exists(mesh.local_in(n.x, n.y)));
    EXPECT_TRUE(mesh.exists(mesh.local_out(n.x, n.y)));
  }
}

TEST(Mesh, OffMeshPortsDoNotExist) {
  const Mesh2D mesh(2, 2);
  EXPECT_FALSE(mesh.exists(Port{-1, 0, PortName::kLocal, Direction::kIn}));
  EXPECT_FALSE(mesh.exists(Port{0, 5, PortName::kLocal, Direction::kIn}));
  EXPECT_FALSE(mesh.contains_node(2, 0));
  EXPECT_TRUE(mesh.contains_node(1, 1));
}

TEST(Mesh, IdsAreDenseAndRoundTrip) {
  const Mesh2D mesh(4, 3);
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    EXPECT_TRUE(mesh.exists(p)) << to_string(p);
    EXPECT_EQ(mesh.id(p), pid) << to_string(p);
  }
}

TEST(Mesh, IdOfMissingPortThrows) {
  const Mesh2D mesh(2, 2);
  EXPECT_THROW(mesh.id(Port{0, 0, PortName::kWest, Direction::kIn}),
               ContractViolation);
  EXPECT_THROW(mesh.id(Port{7, 7, PortName::kLocal, Direction::kIn}),
               ContractViolation);
  EXPECT_THROW(mesh.port(static_cast<PortId>(mesh.port_count())),
               ContractViolation);
}

TEST(Mesh, SourcesAndDestinationsAreTheLocalPorts) {
  const Mesh2D mesh(3, 2);
  const auto sources = mesh.sources();
  const auto dests = mesh.destinations();
  ASSERT_EQ(sources.size(), mesh.node_count());
  ASSERT_EQ(dests.size(), mesh.node_count());
  for (const Port& s : sources) {
    EXPECT_EQ(s.name, PortName::kLocal);
    EXPECT_EQ(s.dir, Direction::kIn);
  }
  for (const Port& d : dests) {
    EXPECT_EQ(d.name, PortName::kLocal);
    EXPECT_EQ(d.dir, Direction::kOut);
  }
}

TEST(Mesh, DegenerateRowAndColumnMeshes) {
  const Mesh2D row(5, 1);
  EXPECT_EQ(row.port_count(), expected_port_count(5, 1));
  EXPECT_FALSE(row.exists(Port{2, 0, PortName::kNorth, Direction::kIn}));
  EXPECT_FALSE(row.exists(Port{2, 0, PortName::kSouth, Direction::kIn}));
  EXPECT_TRUE(row.exists(Port{2, 0, PortName::kEast, Direction::kIn}));

  const Mesh2D column(1, 5);
  EXPECT_FALSE(column.exists(Port{0, 2, PortName::kEast, Direction::kIn}));
  EXPECT_TRUE(column.exists(Port{0, 2, PortName::kSouth, Direction::kOut}));
}

TEST(Mesh, NodesAreRowMajor) {
  const Mesh2D mesh(3, 2);
  const auto nodes = mesh.nodes();
  ASSERT_EQ(nodes.size(), 6u);
  EXPECT_EQ(nodes[0], (NodeCoord{0, 0}));
  EXPECT_EQ(nodes[1], (NodeCoord{1, 0}));
  EXPECT_EQ(nodes[3], (NodeCoord{0, 1}));
  EXPECT_EQ(nodes[5], (NodeCoord{2, 1}));
}

}  // namespace
}  // namespace genoc
