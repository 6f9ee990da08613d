// Port liveness by construction. Topology::finish_topology seals a port
// graph only if every non-terminal OUT port drives an IN port, every
// non-terminal IN port is driven by exactly one OUT port, and every node
// has a terminal IN and a terminal OUT port; its header proves that these
// make every port live. The seal tests build a two-node graph one defect
// away from valid, once per defect, and the seal must reject each (a link
// into a terminal port already fails at set_link). The oracle tests check
// the proof's conclusion with the two-BFS oracle on every registry preset
// and on each family at small sizes (the faulted grids are
// checked in test_fault_derivation).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "liveness_oracle.hpp"
#include "topology/cmesh.hpp"
#include "topology/dragonfly.hpp"
#include "topology/mesh.hpp"
#include "topology/port.hpp"
#include "util/require.hpp"

namespace genoc {
namespace {

enum class Defect {
  kNone,
  kUnlinkedFabricIn,  // node 0 gains a W IN port nothing drives
  kNoTerminalIn,      // node 1 loses its L IN port
  kNoTerminalOut,     // node 1 loses its L OUT port
  kInDrivenTwice,     // node 1 gains an E OUT port onto node 0's E IN port
  kTerminalInDriven,  // node 1's W OUT drives node 0's L IN, not its E IN
};

/// Two nodes joined by one channel each way (0:E <-> 1:W), each with an
/// L (terminal) IN/OUT pair, plus \p defect.
class TwoNodes final : public Topology {
 public:
  explicit TwoNodes(Defect defect) {
    enum : std::size_t { kE, kW, kL };
    begin_topology(2, {"E", "W", "L"}, std::uint64_t{1} << kL);
    const PortId e_in0 = add_port(0, kE, Direction::kIn);
    const PortId e_out0 = add_port(0, kE, Direction::kOut);
    if (defect == Defect::kUnlinkedFabricIn) {
      add_port(0, kW, Direction::kIn);
    }
    const PortId l_in0 = add_port(0, kL, Direction::kIn);
    add_port(0, kL, Direction::kOut);
    if (defect == Defect::kInDrivenTwice) {
      set_link(add_port(1, kE, Direction::kOut), e_in0);
    }
    const PortId w_in1 = add_port(1, kW, Direction::kIn);
    const PortId w_out1 = add_port(1, kW, Direction::kOut);
    if (defect != Defect::kNoTerminalIn) {
      add_port(1, kL, Direction::kIn);
    }
    if (defect != Defect::kNoTerminalOut) {
      add_port(1, kL, Direction::kOut);
    }
    set_link(e_out0, w_in1);
    set_link(w_out1, defect == Defect::kTerminalInDriven ? l_in0 : e_in0);
    finish_topology();
  }
  std::string family() const override { return "two-nodes"; }
  std::string node_label(std::size_t node) const override {
    return std::to_string(node);
  }
};

/// The seal's ContractViolation message for \p defect, or "" when it seals.
std::string seal_failure(Defect defect) {
  try {
    const TwoNodes topo(defect);
  } catch (const ContractViolation& violation) {
    return violation.what();
  }
  return "";
}

void expect_sealed_live(const Topology& topo, const std::string& context) {
  const PortLiveness liveness = port_liveness(topo);
  EXPECT_TRUE(liveness.all_live())
      << context << ": " << liveness.unreachable << " unreachable, "
      << liveness.dead_ends << " dead-end ports of "
      << topo.port_count();
}

TEST(TopologySeal, TheDefectFreeFixtureSealsLive) {
  const TwoNodes topo(Defect::kNone);
  EXPECT_EQ(topo.port_count(), 8u);
  expect_sealed_live(topo, "two nodes");
}

TEST(TopologySeal, UnlinkedFabricInPortFailsTheSeal) {
  EXPECT_NE(seal_failure(Defect::kUnlinkedFabricIn)
                .find("1 non-terminal IN ports have no link source"),
            std::string::npos);
}

TEST(TopologySeal, NodeWithoutTerminalInPortFailsTheSeal) {
  EXPECT_NE(seal_failure(Defect::kNoTerminalIn)
                .find("node 1 has no terminal IN port"),
            std::string::npos);
}

TEST(TopologySeal, NodeWithoutTerminalOutPortFailsTheSeal) {
  EXPECT_NE(seal_failure(Defect::kNoTerminalOut)
                .find("node 1 has no terminal OUT port"),
            std::string::npos);
}

TEST(TopologySeal, InPortTargetedByTwoLinksFailsTheSeal) {
  EXPECT_NE(seal_failure(Defect::kInDrivenTwice)
                .find("IN port <0,E,IN> is the target of two links"),
            std::string::npos);
}

// Counting driven IN ports is sound only because links never drive a
// terminal IN port: here one does, and node 0's E IN port goes undriven.
TEST(TopologySeal, LinkIntoATerminalPortIsRejected) {
  EXPECT_NE(seal_failure(Defect::kTerminalInDriven)
                .find("links join non-terminal ports"),
            std::string::npos);
}

TEST(PortLivenessOracle, EveryRegistryPresetIsLive) {
  const std::vector<InstanceSpec>& presets =
      InstanceRegistry::global().presets();
  ASSERT_FALSE(presets.empty());
  for (const InstanceSpec& spec : presets) {
    expect_sealed_live(*make_topology(spec), spec.name);
  }
}

TEST(PortLivenessOracle, EveryFamilyIsLiveAtSmallSizes) {
  for (std::int32_t w = 1; w <= 5; ++w) {
    for (std::int32_t h = 1; h <= 5; ++h) {
      for (const bool wrap_x : {false, true}) {
        for (const bool wrap_y : {false, true}) {
          if (w * h < 2 || (wrap_x && w < 2) || (wrap_y && h < 2)) {
            continue;
          }
          const Mesh2D grid(w, h, wrap_x, wrap_y);
          expect_sealed_live(grid, grid.family() + " " + std::to_string(w) +
                                       "x" + std::to_string(h));
        }
      }
      for (std::uint32_t c = 1; c <= 3; ++c) {
        if (w * h >= 2 && w <= 3 && h <= 3) {
          expect_sealed_live(CMeshTopology(w, h, c),
                             "cmesh " + std::to_string(w) + "x" +
                                 std::to_string(h) + " c" + std::to_string(c));
        }
      }
    }
  }
  for (std::uint32_t routers = 2; routers <= 4; ++routers) {
    for (std::uint32_t globals = 1; globals <= 2; ++globals) {
      for (std::uint32_t groups = 2; groups <= routers * globals + 1;
           ++groups) {
        expect_sealed_live(DragonflyTopology(routers, globals, 2, groups),
                           "dragonfly a=" + std::to_string(routers) +
                               " h=" + std::to_string(globals) +
                               " g=" + std::to_string(groups));
      }
    }
  }
}

}  // namespace
}  // namespace genoc
