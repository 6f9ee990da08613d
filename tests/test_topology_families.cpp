// The Topology port-graph abstraction and its first non-grid clients.
//
// Three claims are pinned here. (1) The base-class tables MIRROR the grid
// Port-tuple API bit-for-bit on Mesh2D — same PortIds, same labels, same
// destination list — so the refactor cannot have moved a single grid port.
// (2) The concentrated mesh and dragonfly obey the enumeration/link
// contract the sweepers rely on (terminal OUT ports drain, cardinal and
// global links are involutions, destinations ascend node-major). (3) The
// new presets verify to their registered verdicts with results identical
// across builders and thread counts — including the dragonfly cycle
// witness, which must name the same port on 1, 4 and 8 threads.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "deadlock/depgraph.hpp"
#include "instance/batch_runner.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "topology/cmesh.hpp"
#include "topology/dragonfly.hpp"
#include "topology/mesh.hpp"
#include "util/require.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace genoc {
namespace {

TEST(TopologyFamilies, MeshBaseTablesMirrorTheGridTupleApi) {
  // Mesh2D keeps no port table of its own: its Port-tuple API answers from
  // the base tables. Pin that on every grid family, faulted ones included.
  const std::vector<Mesh2D> grids = {
      Mesh2D(5, 4),
      Mesh2D(5, 4, /*wrap_x=*/true, /*wrap_y=*/false),
      Mesh2D(4, 3, /*wrap_x=*/true, /*wrap_y=*/true),
      Mesh2D(5, 4, false, false,
             {LinkFault{6, PortName::kEast}, LinkFault{12, PortName::kSouth}}),
      Mesh2D(4, 3, true, true, {LinkFault{3, PortName::kEast}}),  // a wrap
  };
  for (const Mesh2D& mesh : grids) {
    SCOPED_TRACE(mesh.family() + " " + std::to_string(mesh.width()) + "x" +
                 std::to_string(mesh.height()) + " with " +
                 std::to_string(mesh.failed_links().size()) + " faults");
    ASSERT_EQ(mesh.name_count(), 5u);
    ASSERT_EQ(mesh.slots_per_node(), kPortSlotsPerNode);
    EXPECT_EQ(mesh.terminal_name_mask(),
              std::uint64_t{1} << static_cast<std::size_t>(PortName::kLocal));
    const auto width = static_cast<std::size_t>(mesh.width());

    // nodes() is the row-major coordinate table.
    ASSERT_EQ(mesh.nodes().size(), mesh.node_count());
    for (std::size_t node = 0; node < mesh.node_count(); ++node) {
      EXPECT_EQ(mesh.nodes()[node],
                (NodeCoord{static_cast<std::int32_t>(node % width),
                           static_cast<std::int32_t>(node / width)}));
    }

    // Every slot, one ring of off-mesh coordinates included: try_id and
    // exists agree with the slot table, removed ports and all.
    std::size_t existing = 0;
    for (std::int32_t y = -1; y <= mesh.height(); ++y) {
      for (std::int32_t x = -1; x <= mesh.width(); ++x) {
        for (const PortName name :
             {PortName::kEast, PortName::kWest, PortName::kNorth,
              PortName::kSouth, PortName::kLocal}) {
          for (const Direction dir : {Direction::kIn, Direction::kOut}) {
            const Port p{x, y, name, dir};
            PortId expected = kInvalidPort;
            if (mesh.contains_node(x, y)) {
              const std::size_t node = static_cast<std::size_t>(y) * width +
                                       static_cast<std::size_t>(x);
              expected =
                  mesh.slot_id(node, static_cast<std::size_t>(name), dir);
            }
            const bool exists = expected != kInvalidPort;
            existing += exists ? 1 : 0;
            EXPECT_EQ(mesh.exists(p), exists) << to_string(p);
            EXPECT_EQ(mesh.try_id(p),
                      exists ? static_cast<std::int32_t>(expected) : -1)
                << to_string(p);
            if (exists) {
              EXPECT_EQ(mesh.id(p), expected) << to_string(p);
            } else {
              EXPECT_THROW(mesh.id(p), ContractViolation) << to_string(p);
            }
          }
        }
      }
    }
    EXPECT_EQ(existing, mesh.port_count());

    // A failed link's four channel ports are gone from every answer.
    for (const LinkFault& fault : mesh.failed_links()) {
      const LinkFault peer =
          link_fault_peer(fault, mesh.width(), mesh.height(), mesh.wraps_x(),
                          mesh.wraps_y());
      for (const LinkFault& end : {fault, peer}) {
        const NodeCoord at = mesh.nodes()[static_cast<std::size_t>(end.node)];
        for (const Direction dir : {Direction::kIn, Direction::kOut}) {
          const Port gone{at.x, at.y, end.name, dir};
          EXPECT_FALSE(mesh.exists(gone)) << to_string(gone);
          EXPECT_EQ(mesh.try_id(gone), -1) << to_string(gone);
        }
      }
    }

    for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
      const Port p = mesh.port(pid);
      const auto node = static_cast<std::size_t>(p.y) * width +
                        static_cast<std::size_t>(p.x);
      EXPECT_EQ(mesh.id(p), pid);
      EXPECT_EQ(mesh.slot_id(node, static_cast<std::size_t>(p.name), p.dir),
                pid);
      EXPECT_EQ(mesh.node_of(pid), node);
      EXPECT_EQ(mesh.port_label(pid), to_string(p));
      if (p.dir == Direction::kOut) {
        if (p.name == PortName::kLocal) {
          EXPECT_EQ(mesh.link_target(pid), kInvalidPort) << to_string(p);
        } else {
          EXPECT_EQ(mesh.link_target(pid), mesh.id(mesh.next_in(p)))
              << to_string(p);
        }
      }
    }
    EXPECT_THROW(mesh.port(static_cast<PortId>(mesh.port_count())),
                 ContractViolation);

    const std::vector<Port> dests = mesh.destinations();
    ASSERT_EQ(mesh.destination_count(), dests.size());
    for (std::size_t i = 0; i < dests.size(); ++i) {
      EXPECT_EQ(mesh.destination_id(i), mesh.id(dests[i]));
      EXPECT_EQ(mesh.dest_index_of(mesh.id(dests[i])), i);
    }
  }
}

TEST(TopologyFamilies, CMeshEnumerationAndLinksHoldTheContract) {
  const CMeshTopology cmesh(4, 3, 4);
  EXPECT_EQ(cmesh.family(), "cmesh");
  EXPECT_EQ(cmesh.node_count(), 12u);
  ASSERT_EQ(cmesh.name_count(), 8u);  // E, W, N, S, T0..T3
  EXPECT_EQ(cmesh.terminal_name_mask(), std::uint64_t{0xF} << 4);
  // Destinations are TERMINALS, node-major ascending: nodes * c of them,
  // the count the (C-3) check formula is keyed on.
  EXPECT_EQ(cmesh.destination_count(), 48u);
  std::size_t previous = 0;
  for (std::size_t i = 0; i < cmesh.destination_count(); ++i) {
    const PortId pid = cmesh.destination_id(i);
    EXPECT_EQ(cmesh.dest_index_of(pid), i);
    EXPECT_EQ(cmesh.link_target(pid), kInvalidPort)
        << "terminal OUT ports drain into the IP core";
    const std::size_t node = cmesh.node_of(pid);
    EXPECT_GE(node, previous) << "destinations must ascend node-major";
    previous = node;
  }
  // Cardinal links are an involution: E,OUT of (x,y) drives W,IN of
  // (x+1,y), whose W,OUT drives back into E,IN of (x,y).
  for (std::size_t node = 0; node < cmesh.node_count(); ++node) {
    for (std::size_t name = 0; name < 4; ++name) {
      const PortId out = cmesh.slot_id(node, name, Direction::kOut);
      if (out == kInvalidPort) {
        continue;  // boundary routers omit off-mesh cardinals, like grids
      }
      const PortId in = cmesh.link_target(out);
      ASSERT_NE(in, kInvalidPort);
      const PortId back = cmesh.slot_id(cmesh.node_of(in),
                                        cmesh.name_of(in), Direction::kOut);
      ASSERT_NE(back, kInvalidPort);
      EXPECT_EQ(cmesh.link_target(back),
                cmesh.slot_id(node, name, Direction::kIn));
    }
  }
}

TEST(TopologyFamilies, DragonflyGlobalChannelsAreOnePhysicalLinkEach) {
  const DragonflyTopology dragonfly(4, 2, 2, 9);
  EXPECT_EQ(dragonfly.node_count(), 36u);
  EXPECT_EQ(dragonfly.port_count(), 504u);
  EXPECT_EQ(dragonfly.destination_count(), 72u);  // p per router
  EXPECT_EQ(dragonfly.node_label(13), "g3r1");
  for (std::size_t node = 0; node < dragonfly.node_count(); ++node) {
    for (std::size_t j = 0; j < dragonfly.global_ports(); ++j) {
      const PortId out =
          dragonfly.slot_id(node, dragonfly.global_name(j), Direction::kOut);
      if (out == kInvalidPort) {
        continue;  // channels k >= g-1 leave their ports non-existent
      }
      const PortId in = dragonfly.link_target(out);
      ASSERT_NE(in, kInvalidPort);
      // The palmtree involution: the far router's paired global OUT port
      // drives straight back into this router's matching IN port.
      const std::size_t far = dragonfly.node_of(in);
      EXPECT_NE(dragonfly.group_of(far), dragonfly.group_of(node));
      const PortId back = dragonfly.slot_id(far, dragonfly.name_of(in),
                                            Direction::kOut);
      ASSERT_NE(back, kInvalidPort);
      EXPECT_EQ(dragonfly.link_target(back),
                dragonfly.slot_id(node, dragonfly.global_name(j),
                                  Direction::kIn));
    }
  }
}

TEST(TopologyFamilies, CMeshPresetsVerifyDeadlockFreeByTheoremOne) {
  std::size_t seen = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.topology != "cmesh") {
      continue;
    }
    ++seen;
    SCOPED_TRACE(spec.name);
    const NetworkInstance instance(spec);
    const InstanceVerdict verdict = instance.verify();
    EXPECT_TRUE(verdict.dep_acyclic) << verdict.note;
    EXPECT_TRUE(verdict.deadlock_free) << verdict.note;
    EXPECT_EQ(verdict.nodes, spec.node_count());
    EXPECT_EQ(verdict.ports, instance.topology().port_count());
  }
  EXPECT_GE(seen, 3u);
}

TEST(TopologyFamilies, DragonflyCycleWitnessIsStableAcrossThreadCounts) {
  // The flagship negative fixture: minimal routing without VCs closes a
  // local->global->local dependency cycle. The witness (length and the
  // named port) must be byte-identical however the build is sharded —
  // a racy parallel builder would surface here first.
  std::string error;
  const auto spec =
      InstanceRegistry::global().resolve("dragonfly9-min", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_FALSE(spec->expect_deadlock_free);
  const NetworkInstance instance(*spec);
  const InstanceVerdict sequential = instance.verify();
  EXPECT_FALSE(sequential.deadlock_free);
  EXPECT_TRUE(sequential.as_expected());
  EXPECT_EQ(sequential.method, "cycle");
  EXPECT_NE(sequential.note.find("dependency cycle of length"),
            std::string::npos)
      << sequential.note;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    BatchRunner runner(threads);
    InstanceVerifyOptions options;
    options.runner = &runner;
    // A fresh instance per pool: the first one's context has the graph
    // and witness cached already.
    const VerifyReport report =
        VerifyPipeline::standard().run(NetworkInstance(*spec), options);
    EXPECT_EQ(report.cache.dep_graph.misses, 1u) << threads << " threads";
    const InstanceVerdict& sharded = report.verdict;
    EXPECT_EQ(sharded.note, sequential.note) << threads << " threads";
    EXPECT_EQ(sharded.edges, sequential.edges) << threads << " threads";
    EXPECT_EQ(sharded.method, sequential.method) << threads << " threads";
  }
}

TEST(TopologyFamilies, NewPresetsBuildBitIdenticalOnFourThreads) {
  // Fast, generic and 4-thread destination-sharded builds of the id-native
  // families must agree edge-for-edge (the grid presets get the same
  // treatment in test_depgraph_fast.cpp).
  BatchRunner runner(4);
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.is_grid()) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    const NetworkInstance instance(spec);
    const PortDepGraph fast = build_dep_graph_fast(instance.routing());
    const PortDepGraph generic = build_dep_graph(instance.routing());
    const PortDepGraph parallel =
        build_dep_graph_fast(instance.routing(), &runner);
    EXPECT_EQ(fast.graph.edges(), generic.graph.edges());
    EXPECT_EQ(fast.graph.edges(), parallel.graph.edges());
  }
}

TEST(TopologyFamilies, SpecRoundTripsAndExpectationParse) {
  const InstanceRegistry& registry = InstanceRegistry::global();
  std::string error;
  for (const char* name :
       {"cmesh4-dor", "cmesh8-dor", "cmesh8-c2", "dragonfly9-min"}) {
    SCOPED_TRACE(name);
    const InstanceSpec* spec = registry.find(name);
    ASSERT_NE(spec, nullptr);
    const auto parsed = registry.resolve(to_spec_string(*spec), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(to_spec_string(*parsed), to_spec_string(*spec));
    EXPECT_EQ(parsed->expect_deadlock_free, spec->expect_deadlock_free);
  }
  // expect= parses both spellings per polarity and rejects garbage.
  const auto prone = registry.resolve(
      "topology=dragonfly routers=4 globals=2 terminals=2 groups=9 "
      "routing=dragonfly_min expect=cycle",
      &error);
  ASSERT_TRUE(prone.has_value()) << error;
  EXPECT_FALSE(prone->expect_deadlock_free);
  EXPECT_NE(to_spec_string(*prone).find(" expect=deadlock"),
            std::string::npos);
  EXPECT_FALSE(registry
                   .resolve("topology=mesh size=4x4 routing=xy expect=maybe",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("expect"), std::string::npos);
}

TEST(TopologyFamilies, UnknownTopologyErrorListsTheRegisteredFamilies) {
  std::string error;
  EXPECT_FALSE(InstanceRegistry::global()
                   .resolve("topology=hypercube size=4x4 routing=xy", &error)
                   .has_value());
  EXPECT_NE(error.find("registered families:"), std::string::npos) << error;
  for (const TopologyFamilyInfo& family : topology_families()) {
    EXPECT_NE(error.find(family.name), std::string::npos) << family.name;
  }
}

TEST(TopologyFamilies, ArtifactKeysSeparateEveryAnalysisContext) {
  // The batch store must never alias two different networks: every new
  // preset (and a same-size grid neighbour) gets a distinct sharing key,
  // and the key ignores the expectation (it is not an analysis input).
  std::set<std::string> keys;
  for (const char* name : {"cmesh4-dor", "cmesh8-dor", "cmesh8-c2",
                           "dragonfly9-min", "mesh8-xy"}) {
    const InstanceSpec* spec = InstanceRegistry::global().find(name);
    ASSERT_NE(spec, nullptr) << name;
    EXPECT_TRUE(keys.insert(AnalysisArtifacts::key(*spec)).second) << name;
  }
  InstanceSpec flipped = *InstanceRegistry::global().find("dragonfly9-min");
  flipped.expect_deadlock_free = true;
  EXPECT_EQ(AnalysisArtifacts::key(flipped),
            AnalysisArtifacts::key(
                *InstanceRegistry::global().find("dragonfly9-min")));
}

}  // namespace
}  // namespace genoc
