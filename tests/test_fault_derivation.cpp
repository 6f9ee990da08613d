// Faulted grids are derived, not enumerated: Mesh2D(base, faults) compacts
// the unfaulted grid's tables. These tests are its oracle, computed from
// the unfaulted tables alone: the surviving ports in base order, the slot
// table and links renumbered, destinations/sources, existence masks and
// the removed base ids, on every small grid (w, h <= 6, every wrap
// combination) under every single fault and seeded 3-link draws, with
// every port live by the liveness oracle. They also pin the connectivity
// rule's fault-endpoint shortcut against a full BFS, and
// FaultModel::variant's O(1) unranking of fault pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "campaign/fault_model.hpp"
#include "instance/spec.hpp"
#include "liveness_oracle.hpp"
#include "topology/mesh.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "verify/artifacts.hpp"

namespace genoc {
namespace {

struct Grid {
  std::int32_t width;
  std::int32_t height;
  bool wrap_x;
  bool wrap_y;
};

std::string describe(const Grid& grid) {
  return std::to_string(grid.width) + "x" + std::to_string(grid.height) +
         (grid.wrap_x ? " wrap-x" : "") + (grid.wrap_y ? " wrap-y" : "");
}

/// Every grid with w, h <= 6 (at least two nodes) and every wrap
/// combination it admits.
std::vector<Grid> small_grids() {
  std::vector<Grid> grids;
  for (std::int32_t w = 1; w <= 6; ++w) {
    for (std::int32_t h = 1; h <= 6; ++h) {
      if (w * h < 2) {
        continue;
      }
      for (const bool wrap_x : {false, true}) {
        for (const bool wrap_y : {false, true}) {
          if ((wrap_x && w < 2) || (wrap_y && h < 2)) {
            continue;
          }
          grids.push_back(Grid{w, h, wrap_x, wrap_y});
        }
      }
    }
  }
  return grids;
}

/// Every fabric link of \p mesh once, named by one of its OUT endpoints,
/// read off the mesh's own link table.
std::vector<LinkFault> links_of(const Mesh2D& mesh) {
  std::set<PortId> named;
  std::vector<LinkFault> links;
  for (PortId out = 0; out < mesh.port_count(); ++out) {
    if (mesh.dir_of(out) != Direction::kOut ||
        mesh.link_target(out) == kInvalidPort || named.count(out) != 0) {
      continue;
    }
    const PortId in = mesh.link_target(out);
    named.insert(out);
    named.insert(mesh.slot_id(mesh.node_of(in), mesh.name_of(in),
                              Direction::kOut));
    links.push_back(LinkFault{static_cast<std::int32_t>(mesh.node_of(out)),
                              static_cast<PortName>(mesh.name_of(out))});
  }
  return links;
}

/// The base ids a fault set removes: each failed link's OUT port, its
/// link target, and the IN/OUT partners of both, from the base tables.
std::vector<PortId> expected_removed(const Mesh2D& base,
                                     const std::vector<LinkFault>& faults) {
  std::set<PortId> removed;
  for (const LinkFault& fault : faults) {
    const auto node = static_cast<std::size_t>(fault.node);
    const auto name = static_cast<std::size_t>(fault.name);
    const PortId out = base.slot_id(node, name, Direction::kOut);
    const PortId in = base.link_target(out);
    removed.insert({out, base.slot_id(node, name, Direction::kIn), in,
                    base.slot_id(base.node_of(in), base.name_of(in),
                                 Direction::kOut)});
  }
  return {removed.begin(), removed.end()};
}

/// Checks \p derived against \p base with \p faults removed, every table
/// recomputed here from the base's.
void expect_derived(const Mesh2D& base, const std::vector<LinkFault>& faults,
                    const Mesh2D& derived) {
  const std::vector<PortId> removed = expected_removed(base, faults);
  ASSERT_EQ(derived.removed_base_ports(), removed);
  EXPECT_EQ(derived.failed_links(), faults);
  EXPECT_EQ(derived.has_faults(), !faults.empty());
  EXPECT_EQ(derived.family(), base.family());
  EXPECT_EQ(derived.node_count(), base.node_count());
  EXPECT_EQ(derived.port_names(), base.port_names());

  // remap: base id -> derived id; survivors keep their base order.
  std::vector<PortId> remap(base.port_count(), kInvalidPort);
  std::vector<PortId> survivors;
  for (PortId pid = 0; pid < base.port_count(); ++pid) {
    if (!std::binary_search(removed.begin(), removed.end(), pid)) {
      remap[pid] = static_cast<PortId>(survivors.size());
      survivors.push_back(pid);
    }
  }
  const auto renumber = [&remap](PortId pid) {
    return pid == kInvalidPort ? kInvalidPort : remap[pid];
  };
  ASSERT_EQ(derived.port_count(), survivors.size());
  for (PortId pid = 0; pid < derived.port_count(); ++pid) {
    const PortId was = survivors[pid];
    EXPECT_EQ(derived.node_of(pid), base.node_of(was));
    EXPECT_EQ(derived.name_of(pid), base.name_of(was));
    EXPECT_EQ(derived.dir_of(pid), base.dir_of(was));
    EXPECT_EQ(derived.port_label(pid), base.port_label(was));
    EXPECT_EQ(derived.link_target(pid), renumber(base.link_target(was)));
    EXPECT_EQ(derived.link_source(pid), renumber(base.link_source(was)));
  }
  for (std::size_t node = 0; node < base.node_count(); ++node) {
    std::uint64_t out_names = 0;
    for (std::size_t name = 0; name < base.name_count(); ++name) {
      for (const Direction dir : {Direction::kIn, Direction::kOut}) {
        const PortId slot = renumber(base.slot_id(node, name, dir));
        EXPECT_EQ(derived.slot_id(node, name, dir), slot);
        if (dir == Direction::kOut && slot != kInvalidPort) {
          out_names |= std::uint64_t{1} << name;
        }
      }
    }
    EXPECT_EQ(derived.out_exists_mask(node), out_names) << "node " << node;
  }
  // Terminal ports never fail: every base destination and source survives.
  std::vector<PortId> dests;
  for (const PortId dest : base.destination_ids()) {
    dests.push_back(renumber(dest));
  }
  EXPECT_EQ(derived.destination_ids(), dests);
  for (std::size_t d = 0; d < dests.size(); ++d) {
    EXPECT_EQ(derived.dest_index_of(dests[d]), d);
  }
  std::vector<PortId> sources;
  for (const PortId source : base.source_ids()) {
    sources.push_back(renumber(source));
  }
  EXPECT_EQ(derived.source_ids(), sources);
  EXPECT_TRUE(port_liveness(derived).all_live());
}

TEST(FaultDerivation, EverySingleFaultAndSeededTriplesOnEverySmallGrid) {
  std::size_t cases = 0;
  for (const Grid& grid : small_grids()) {
    SCOPED_TRACE(describe(grid));
    const Mesh2D base(grid.width, grid.height, grid.wrap_x, grid.wrap_y);
    const std::vector<LinkFault> links = links_of(base);
    std::vector<std::vector<LinkFault>> fault_sets;
    for (const LinkFault& link : links) {
      fault_sets.push_back({link});
    }
    if (links.size() >= 3) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(links.size()));
        const std::vector<std::size_t> order = rng.permutation(links.size());
        fault_sets.push_back({links[order[0]], links[order[1]],
                              links[order[2]]});
      }
    }
    for (const std::vector<LinkFault>& faults : fault_sets) {
      std::string tokens;
      for (const LinkFault& fault : faults) {
        tokens += link_fault_token(fault) + " ";
      }
      SCOPED_TRACE("failed " + tokens);
      expect_derived(base, faults, Mesh2D(base, faults));
      // The by-shape constructor derives from its own unfaulted grid.
      expect_derived(base, faults,
                     Mesh2D(grid.width, grid.height, grid.wrap_x, grid.wrap_y,
                            faults));
      ++cases;
    }
  }
  EXPECT_GT(cases, 3000u);
}

TEST(FaultDerivation, DuplicateFaultsAreIdempotent) {
  const Mesh2D base(5, 4, true, false);
  const LinkFault fault{4, PortName::kEast};  // the wrap link of row 0
  const LinkFault peer = link_fault_peer(fault, 5, 4, true, false);
  const Mesh2D once(base, {fault});
  const Mesh2D thrice(base, {fault, peer, fault});
  EXPECT_EQ(thrice.removed_base_ports(), once.removed_base_ports());
  EXPECT_EQ(thrice.removed_base_ports().size(), 4u);
  // The faults are kept as given, duplicates and all.
  EXPECT_EQ(thrice.failed_links(), (std::vector<LinkFault>{fault, peer, fault}));
  ASSERT_EQ(thrice.port_count(), once.port_count());
  for (PortId pid = 0; pid < once.port_count(); ++pid) {
    EXPECT_EQ(thrice.port_label(pid), once.port_label(pid));
    EXPECT_EQ(thrice.link_target(pid), once.link_target(pid));
  }
  expect_derived(base, {fault, peer, fault}, thrice);
}

TEST(FaultDerivation, RejectsFaultsTheBaseLacksAndFaultedBases) {
  const Mesh2D base(4, 3);
  // West of column 0 is off-mesh on an unwrapped grid; node 12 is past it.
  EXPECT_THROW(Mesh2D(base, {LinkFault{0, PortName::kWest}}),
               ContractViolation);
  EXPECT_THROW(Mesh2D(base, {LinkFault{12, PortName::kEast}}),
               ContractViolation);
  EXPECT_THROW(Mesh2D(base, {LinkFault{-1, PortName::kEast}}),
               ContractViolation);
  EXPECT_THROW(Mesh2D(base, {LinkFault{5, PortName::kLocal}}),
               ContractViolation);
  EXPECT_THROW(Mesh2D(4, 3, false, false, {LinkFault{0, PortName::kWest}}),
               ContractViolation);
  const Mesh2D faulted(base, {LinkFault{5, PortName::kEast}});
  EXPECT_THROW(Mesh2D(faulted, {LinkFault{0, PortName::kEast}}),
               ContractViolation);
}

/// A Topology carved out of a grid by derive_topology with an arbitrary
/// removed list: the seal's checks, not the grid's fault rules.
class Carved final : public Topology {
 public:
  Carved(const Mesh2D& base, const std::vector<PortId>& removed)
      : base_(base) {
    derive_topology(base, removed);
  }
  std::string family() const override { return "carved"; }
  std::string node_label(std::size_t node) const override {
    return base_.node_label(node);
  }

 private:
  const Mesh2D& base_;
};

TEST(FaultDerivation, DeriveTopologyKeepsTheSealsChecks) {
  const Mesh2D base(3, 3);
  const PortId out = base.slot_id(4, static_cast<std::size_t>(PortName::kEast),
                                  Direction::kOut);
  const PortId in = base.link_target(out);
  // Removing one end of a link but not the other strands the other.
  EXPECT_THROW(Carved(base, {in}), ContractViolation);
  EXPECT_THROW(Carved(base, {out}), ContractViolation);
  // Unsorted, repeated and out-of-range removal lists are rejected.
  EXPECT_THROW(Carved(base, {in, out}), ContractViolation);
  EXPECT_THROW(Carved(base, {out, out}), ContractViolation);
  EXPECT_THROW(Carved(base, {static_cast<PortId>(base.port_count())}),
               ContractViolation);
  // Removing both ends of the channel is a consistent topology.
  const Carved carved(base, {std::min(in, out), std::max(in, out)});
  EXPECT_EQ(carved.port_count(), base.port_count() - 2);
  EXPECT_EQ(carved.destination_count(), base.destination_count());
}

/// The connectivity rule's report on \p text, alone.
AnalyzeReport connectivity_report(const std::string& text) {
  std::string error;
  const std::optional<InstanceSpec> spec = parse_instance_spec(text, &error);
  GENOC_REQUIRE(spec.has_value(), text + ": " + error);
  const std::optional<Analyzer> analyzer =
      Analyzer::from_rule_names({"connectivity"}, &error);
  GENOC_REQUIRE(analyzer.has_value(), error);
  AnalysisArtifacts artifacts(*spec);
  return analyzer->run(*spec, artifacts);
}

/// What the full BFS reports, recomputed here: the nodes the surviving
/// links do not connect to node 0, and the OUT ports of the nodes they do
/// (the BFS scans each once). Plus the route-coverage checks: every
/// fault-endpoint node against every other node's destination.
struct Expected {
  std::vector<std::string> cut_off;
  std::uint64_t checks = 0;
};

Expected full_bfs(const Mesh2D& mesh) {
  std::vector<char> seen(mesh.node_count(), 0);
  std::vector<std::size_t> stack = {0};
  seen[0] = 1;
  Expected expected;
  while (!stack.empty()) {
    const std::size_t node = stack.back();
    stack.pop_back();
    expected.checks += static_cast<std::uint64_t>(
        std::popcount(mesh.out_exists_mask(node)));
    for (std::size_t name = 0; name < 4; ++name) {
      const PortId out = mesh.slot_id(node, name, Direction::kOut);
      if (out != kInvalidPort && !seen[mesh.node_of(mesh.link_target(out))]) {
        seen[mesh.node_of(mesh.link_target(out))] = 1;
        stack.push_back(mesh.node_of(mesh.link_target(out)));
      }
    }
  }
  for (std::size_t node = 0; node < mesh.node_count(); ++node) {
    if (!seen[node]) {
      expected.cut_off.push_back(mesh.node_label(node));
    }
  }
  std::set<std::size_t> endpoints;
  for (const LinkFault& fault : mesh.failed_links()) {
    endpoints.insert(static_cast<std::size_t>(fault.node));
    endpoints.insert(static_cast<std::size_t>(
        link_fault_peer(fault, mesh.width(), mesh.height(), mesh.wraps_x(),
                        mesh.wraps_y())
            .node));
  }
  expected.checks += endpoints.size() * (mesh.node_count() - 1);
  return expected;
}

void expect_connectivity(const Grid& grid,
                         const std::vector<LinkFault>& faults) {
  const char* family =
      grid.wrap_y ? "torus" : (grid.wrap_x ? "ring" : "mesh");
  std::vector<std::string> tokens;
  for (const LinkFault& fault : faults) {
    tokens.push_back(link_fault_token(fault));
  }
  const std::string text =
      std::string("topology=") + family + " size=" +
      std::to_string(grid.width) + "x" + std::to_string(grid.height) +
      " routing=" + (grid.wrap_x ? "torus_xy" : "xy") +
      " failed=" + join_failed_links(tokens);
  SCOPED_TRACE(text);
  const Expected expected = full_bfs(
      Mesh2D(grid.width, grid.height, grid.wrap_x, grid.wrap_y, faults));
  const AnalyzeReport report = connectivity_report(text);
  ASSERT_EQ(report.rules.size(), 1u);
  EXPECT_EQ(report.rules.front().checks, expected.checks);
  std::vector<std::string> cut_off;
  std::string broken;
  for (const Diagnostic& diagnostic : report.diagnostics) {
    if (diagnostic.code == "net-disconnected") {
      ASSERT_EQ(diagnostic.witness.size(), 1u);
      cut_off.push_back(diagnostic.witness.front().second);
    } else if (diagnostic.code == "connectivity-broken") {
      broken = diagnostic.witness.front().second;
    }
  }
  // Findings are capped per code; the summary carries the full count.
  const std::size_t cap = AnalyzeOptions{}.max_findings_per_code;
  EXPECT_EQ(cut_off,
            std::vector<std::string>(
                expected.cut_off.begin(),
                expected.cut_off.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(cap, expected.cut_off.size()))));
  EXPECT_EQ(broken, expected.cut_off.empty()
                        ? std::string()
                        : std::to_string(expected.cut_off.size()));
}

TEST(FaultDerivation, ConnectivityShortcutMatchesTheFullBfs) {
  std::size_t cut = 0;
  // Every link of a 1xN or Nx1 mesh is a bridge; so is every pair.
  for (const Grid& grid : {Grid{1, 6, false, false}, Grid{7, 1, false, false},
                           Grid{12, 1, false, false}}) {
    const std::vector<LinkFault> links =
        links_of(Mesh2D(grid.width, grid.height));
    for (std::size_t i = 0; i < links.size(); ++i) {
      expect_connectivity(grid, {links[i]});
      ++cut;
      for (std::size_t j = i + 1; j < links.size(); ++j) {
        expect_connectivity(grid, {links[i], links[j]});
      }
    }
  }
  // A ring survives one cut (the detour is the rest of the ring), not two.
  const Grid ring{8, 1, true, false};
  const std::vector<LinkFault> ring_links = links_of(Mesh2D(8, 1, true));
  for (std::size_t i = 0; i < ring_links.size(); ++i) {
    expect_connectivity(ring, {ring_links[i]});
    for (std::size_t j = i + 1; j < ring_links.size(); ++j) {
      expect_connectivity(ring, {ring_links[i], ring_links[j]});
    }
  }
  // Connected and cut-off cases on 2D grids: a corner isolated by its two
  // links, and every single fault of a 4x4 mesh and a 3x3 torus.
  expect_connectivity(Grid{4, 4, false, false},
                      {LinkFault{0, PortName::kEast},
                       LinkFault{0, PortName::kSouth}});
  expect_connectivity(Grid{4, 4, false, false},
                      {LinkFault{0, PortName::kEast},
                       LinkFault{5, PortName::kNorth}});
  for (const Grid& grid : {Grid{4, 4, false, false}, Grid{3, 3, true, true}}) {
    for (const LinkFault& link :
         links_of(Mesh2D(grid.width, grid.height, grid.wrap_x, grid.wrap_y))) {
      expect_connectivity(grid, {link});
    }
  }
  EXPECT_EQ(cut, 5u + 6u + 11u);
}

TEST(FaultDerivation, VariantUnranksEveryFaultPair) {
  for (const char* text :
       {"topology=mesh size=4x4 routing=xy", "topology=ring size=3x2 routing=torus_xy",
        "topology=mesh size=1x3 routing=xy", "topology=mesh size=2x1 routing=xy"}) {
    SCOPED_TRACE(text);
    std::string error;
    const std::optional<InstanceSpec> spec = parse_instance_spec(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    const FaultModel model(*spec);
    const std::vector<std::string>& links = model.links();
    FaultPlan pairs;
    pairs.kind = FaultPlan::Kind::kDouble;
    std::size_t index = 0;
    for (std::size_t i = 0; i < links.size(); ++i) {
      for (std::size_t j = i + 1; j < links.size(); ++j) {
        const InstanceSpec variant = model.variant(pairs, index++);
        EXPECT_EQ(variant.failed_links,
                  (std::vector<std::string>{links[i], links[j]}));
        EXPECT_TRUE(variant.name.empty());
      }
    }
    EXPECT_EQ(index, model.variant_count(pairs));
    EXPECT_THROW(model.variant(pairs, index), ContractViolation);
    const FaultPlan single;
    for (std::size_t i = 0; i < links.size(); ++i) {
      EXPECT_EQ(model.variant(single, i).failed_links,
                std::vector<std::string>{links[i]});
    }
    EXPECT_THROW(model.variant(single, links.size()), ContractViolation);
  }
}

TEST(FaultDerivation, VariantUnranksRowBoundariesOfALargePlan) {
  // 8,064 links and 32.5M pairs: every row's first and last pair, where a
  // floating-point unranking would round across the boundary.
  std::string error;
  const std::optional<InstanceSpec> spec =
      parse_instance_spec("topology=mesh size=64x64 routing=xy", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const FaultModel model(*spec);
  const std::vector<std::string>& links = model.links();
  FaultPlan pairs;
  pairs.kind = FaultPlan::Kind::kDouble;
  std::size_t first = 0;
  for (std::size_t i = 0; i + 1 < links.size(); ++i) {
    const std::size_t last = first + (links.size() - 1 - i) - 1;
    ASSERT_EQ(model.variant(pairs, first).failed_links,
              (std::vector<std::string>{links[i], links[i + 1]}))
        << "row " << i;
    ASSERT_EQ(model.variant(pairs, last).failed_links,
              (std::vector<std::string>{links[i], links.back()}))
        << "row " << i;
    first = last + 1;
  }
  EXPECT_EQ(first, model.variant_count(pairs));
}

TEST(FaultDerivation, CampaignContextsDeriveFromTheBaseGrid) {
  std::string error;
  const std::optional<InstanceSpec> base_spec =
      parse_instance_spec("topology=torus size=6x5 routing=torus_xy escape=xy",
                          &error);
  ASSERT_TRUE(base_spec.has_value()) << error;
  const auto base = std::make_shared<AnalysisArtifacts>(*base_spec);
  const auto& base_mesh = dynamic_cast<const Mesh2D&>(base->topology());
  const InstanceSpec vspec =
      base_spec->with_failed_links({"7:E", "20:S", "5:E"});
  const AnalysisArtifacts derived(vspec, base);
  const AnalysisArtifacts built(vspec);
  const auto& mesh = dynamic_cast<const Mesh2D&>(derived.topology());
  std::vector<LinkFault> faults;
  for (const std::string& token : vspec.failed_links) {
    faults.push_back(*parse_link_fault(token, nullptr));
  }
  expect_derived(base_mesh, faults, mesh);
  // A context built without the base has the very same port graph.
  ASSERT_EQ(built.topology().port_count(), mesh.port_count());
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    EXPECT_EQ(built.topology().port_label(pid), mesh.port_label(pid));
    EXPECT_EQ(built.topology().link_target(pid), mesh.link_target(pid));
  }
  // A base of another shape is rejected, not silently derived from.
  const auto other = std::make_shared<AnalysisArtifacts>(
      *parse_instance_spec("topology=torus size=5x6 routing=torus_xy escape=xy",
                           &error));
  EXPECT_THROW((void)AnalysisArtifacts(vspec, other), ContractViolation);
}

}  // namespace
}  // namespace genoc
