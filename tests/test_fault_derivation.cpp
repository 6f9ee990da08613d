// Every grid, faulted or not, comes from Mesh2D's one closed-form fill.
// These tests compare its tables field by field with the enumerating
// oracle's (grid_oracle.hpp) on every small grid (w, h <= 6, every wrap
// combination) unfaulted, under every single fault and under seeded
// 3-link draws, and on the 64x64 mesh and torus; they check the removed
// base ids against the unfaulted tables, the surviving ports against the
// base's order, and every port live by the liveness oracle. They also pin
// the connectivity rule's fault-endpoint shortcut against a full BFS and
// its whole report against the rule's old body (connectivity_oracle.hpp),
// through plain and base-wired contexts, and FaultModel::variant's O(1)
// unranking of fault pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyzer.hpp"
#include "campaign/fault_model.hpp"
#include "connectivity_oracle.hpp"
#include "grid_oracle.hpp"
#include "instance/spec.hpp"
#include "liveness_oracle.hpp"
#include "obs/metrics.hpp"
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

/// Checks every table of \p mesh against the enumerating oracle's, field
/// by field.
void expect_matches_oracle(const Topology& oracle, const Mesh2D& mesh) {
  ASSERT_EQ(mesh.node_count(), oracle.node_count());
  ASSERT_EQ(mesh.port_count(), oracle.port_count());
  EXPECT_EQ(mesh.port_names(), oracle.port_names());
  EXPECT_EQ(mesh.terminal_name_mask(), oracle.terminal_name_mask());
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    ASSERT_EQ(mesh.node_of(pid), oracle.node_of(pid)) << "port " << pid;
    ASSERT_EQ(mesh.name_of(pid), oracle.name_of(pid)) << "port " << pid;
    ASSERT_EQ(mesh.dir_of(pid), oracle.dir_of(pid)) << "port " << pid;
    ASSERT_EQ(mesh.port_label(pid), oracle.port_label(pid));
    ASSERT_EQ(mesh.link_target(pid), oracle.link_target(pid))
        << mesh.port_label(pid);
    ASSERT_EQ(mesh.link_source(pid), oracle.link_source(pid))
        << mesh.port_label(pid);
    ASSERT_EQ(mesh.dest_index_of(pid), oracle.dest_index_of(pid))
        << mesh.port_label(pid);
  }
  for (std::size_t node = 0; node < mesh.node_count(); ++node) {
    ASSERT_EQ(mesh.node_label(node), oracle.node_label(node));
    ASSERT_EQ(mesh.out_exists_mask(node), oracle.out_exists_mask(node))
        << "node " << node;
    for (std::size_t name = 0; name < mesh.name_count(); ++name) {
      for (const Direction dir : {Direction::kIn, Direction::kOut}) {
        ASSERT_EQ(mesh.slot_id(node, name, dir),
                  oracle.slot_id(node, name, dir))
            << "node " << node << " name " << name;
      }
    }
  }
  EXPECT_EQ(mesh.destination_ids(), oracle.destination_ids());
  EXPECT_EQ(mesh.source_ids(), oracle.source_ids());
}

/// Checks the grid \p mesh, built with \p faults, against the oracle and
/// against \p base: removed_base_ports() names the base ports the faults
/// remove, and \p mesh numbers its ports as \p base does with those
/// skipped (what the delta builder's id translation rests on).
void expect_faulted(const Mesh2D& base, const std::vector<LinkFault>& faults,
                    const Mesh2D& mesh) {
  const std::vector<PortId> removed = removed_base_ports(base, faults);
  ASSERT_EQ(removed, expected_removed(base, faults));
  EXPECT_EQ(mesh.failed_links(), faults);
  EXPECT_EQ(mesh.has_faults(), !faults.empty());
  EXPECT_EQ(mesh.family(), base.family());
  expect_matches_oracle(OracleGrid(base.width(), base.height(), base.wraps_x(),
                                   base.wraps_y(), faults),
                        mesh);
  ASSERT_EQ(mesh.port_count() + removed.size(), base.port_count());
  PortId pid = 0;
  for (PortId was = 0; was < base.port_count(); ++was) {
    if (!std::binary_search(removed.begin(), removed.end(), was)) {
      ASSERT_EQ(mesh.port_label(pid++), base.port_label(was));
    }
  }
  EXPECT_TRUE(port_liveness(mesh).all_live());
}

TEST(FaultDerivation, UnfaultedGridsMatchTheEnumeratingOracle) {
  for (const Grid& grid : small_grids()) {
    SCOPED_TRACE(describe(grid));
    expect_matches_oracle(
        OracleGrid(grid.width, grid.height, grid.wrap_x, grid.wrap_y),
        Mesh2D(grid.width, grid.height, grid.wrap_x, grid.wrap_y));
  }
  for (const bool wrap : {false, true}) {
    SCOPED_TRACE(wrap ? "64x64 torus" : "64x64 mesh");
    const Mesh2D mesh(64, 64, wrap, wrap);
    expect_matches_oracle(OracleGrid(64, 64, wrap, wrap), mesh);
    EXPECT_TRUE(removed_base_ports(mesh, {}).empty());
  }
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
      expect_faulted(base, faults,
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
  const std::vector<LinkFault> repeated = {fault, peer, fault};
  const Mesh2D once(5, 4, true, false, {fault});
  const Mesh2D thrice(5, 4, true, false, repeated);
  EXPECT_EQ(removed_base_ports(base, repeated),
            removed_base_ports(base, {fault}));
  EXPECT_EQ(removed_base_ports(base, repeated).size(), 4u);
  // The faults are kept as given, duplicates and all.
  EXPECT_EQ(thrice.failed_links(), repeated);
  ASSERT_EQ(thrice.port_count(), once.port_count());
  for (PortId pid = 0; pid < once.port_count(); ++pid) {
    EXPECT_EQ(thrice.port_label(pid), once.port_label(pid));
    EXPECT_EQ(thrice.link_target(pid), once.link_target(pid));
  }
  expect_faulted(base, repeated, thrice);
}

TEST(FaultDerivation, RejectsFaultsTheBaseLacksAndFaultedBases) {
  const Mesh2D base(4, 3);
  // West of column 0 is off-mesh on an unwrapped grid; node 12 is past it.
  for (const LinkFault& missing :
       {LinkFault{0, PortName::kWest}, LinkFault{12, PortName::kEast},
        LinkFault{-1, PortName::kEast}, LinkFault{5, PortName::kLocal}}) {
    SCOPED_TRACE(link_fault_token(missing));
    EXPECT_THROW(Mesh2D(4, 3, false, false, {missing}), ContractViolation);
    EXPECT_THROW((void)removed_base_ports(base, {missing}),
                 ContractViolation);
  }
  // Removed ports are named in an unfaulted grid's ids.
  const Mesh2D faulted(4, 3, false, false, {LinkFault{5, PortName::kEast}});
  EXPECT_THROW((void)removed_base_ports(faulted, {LinkFault{0, PortName::kEast}}),
               ContractViolation);
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

/// The rule's report through \p context, against the old rule body over
/// \p oracle (a context that built its own faulted grid): every
/// diagnostic whole and in order, and the check count.
void expect_matches_connectivity_oracle(const InstanceSpec& spec,
                                        AnalysisArtifacts& context,
                                        const AnalysisArtifacts& oracle) {
  std::string error;
  const std::optional<Analyzer> analyzer =
      Analyzer::from_rule_names({"connectivity"}, &error);
  ASSERT_TRUE(analyzer.has_value()) << error;
  const AnalyzeReport report = analyzer->run(spec, context);
  std::vector<Diagnostic> expected;
  const StageStats stats = connectivity_oracle(
      oracle.topology(), oracle.routing(), AnalyzeOptions{}, expected);
  ASSERT_EQ(report.rules.size(), 1u);
  EXPECT_EQ(report.rules.front().checks, stats.checks);
  EXPECT_EQ(report.rules.front().passed, stats.passed);
  ASSERT_EQ(report.diagnostics.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Diagnostic& got = report.diagnostics[i];
    EXPECT_EQ(got.stage, expected[i].stage) << i;
    EXPECT_EQ(got.severity, expected[i].severity) << i;
    EXPECT_EQ(got.code, expected[i].code) << i;
    EXPECT_EQ(got.message, expected[i].message) << i;
    EXPECT_EQ(got.witness, expected[i].witness) << i;
  }
}

TEST(FaultDerivation, ConnectivityMatchesTheOldRuleOnPlainAndWiredContexts) {
  const std::uint64_t grids_before = obs::MetricsRegistry::global()
                                         .counter("artifacts.variant_grids")
                                         .value();
  std::size_t cases = 0;
  std::size_t wired = 0;
  for (const Grid& grid : small_grids()) {
    if (grid.wrap_y && !grid.wrap_x) {
      continue;  // no spec family wraps y alone
    }
    const char* family =
        grid.wrap_y ? "torus" : (grid.wrap_x ? "ring" : "mesh");
    const std::vector<LinkFault> links = links_of(
        Mesh2D(grid.width, grid.height, grid.wrap_x, grid.wrap_y));
    std::vector<std::vector<LinkFault>> fault_sets;
    for (const LinkFault& link : links) {
      fault_sets.push_back({link});
    }
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(links.size()));
      const std::vector<std::size_t> order = rng.permutation(links.size());
      for (const std::size_t count : {2u, 3u}) {
        if (links.size() >= count) {
          std::vector<LinkFault> draw;
          for (std::size_t i = 0; i < count; ++i) {
            draw.push_back(links[order[i]]);
          }
          fault_sets.push_back(draw);
        }
      }
    }
    const std::vector<std::string> routings =
        grid.wrap_x ? std::vector<std::string>{"torus_xy"}
                    : std::vector<std::string>{"xy", "yx", "west_first",
                                               "north_last", "negative_first"};
    for (const std::string& routing : routings) {
      std::string error;
      const std::optional<InstanceSpec> base_spec = parse_instance_spec(
          std::string("topology=") + family + " size=" +
              std::to_string(grid.width) + "x" + std::to_string(grid.height) +
              " routing=" + routing,
          &error);
      ASSERT_TRUE(base_spec.has_value()) << error;
      const auto base = std::make_shared<AnalysisArtifacts>(*base_spec);
      for (const std::vector<LinkFault>& faults : fault_sets) {
        std::vector<std::string> tokens;
        for (const LinkFault& fault : faults) {
          tokens.push_back(link_fault_token(fault));
        }
        const InstanceSpec spec = base_spec->with_failed_links(tokens);
        SCOPED_TRACE(to_spec_string(spec));
        const AnalysisArtifacts oracle(spec);
        AnalysisArtifacts plain(spec);
        expect_matches_connectivity_oracle(spec, plain, oracle);
        AnalysisArtifacts variant(spec, base);
        expect_matches_connectivity_oracle(spec, variant, oracle);
        wired += variant.base() != nullptr ? 1 : 0;
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 3000u);
  EXPECT_EQ(wired, cases);
  // The screen read the base grid: no wired context derived its own.
  EXPECT_EQ(obs::MetricsRegistry::global()
                .counter("artifacts.variant_grids")
                .value(),
            grids_before);
}

TEST(FaultDerivation, WiredContextDerivesOnceUnderConcurrentFirstTouch) {
  std::string error;
  const std::optional<InstanceSpec> base_spec =
      parse_instance_spec("topology=mesh size=8x8 routing=xy", &error);
  ASSERT_TRUE(base_spec.has_value()) << error;
  const auto base = std::make_shared<AnalysisArtifacts>(*base_spec);
  const AnalysisArtifacts variant(base_spec->with_failed_links({"9:E", "20:S"}),
                                  base);
  obs::Counter& grids =
      obs::MetricsRegistry::global().counter("artifacts.variant_grids");
  const std::uint64_t grids_before = grids.value();
  const std::size_t nodes = base->topology().node_count();
  // Each thread touches the variant's lazy grid and every node's histogram
  // on the base, from a different starting node.
  constexpr std::size_t kThreads = 4;
  std::vector<const Topology*> seen(kThreads, nullptr);
  std::vector<std::vector<const OutMaskHistogram*>> tables(
      kThreads, std::vector<const OutMaskHistogram*>(nodes, nullptr));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = &variant.topology();
      for (std::size_t i = 0; i < nodes; ++i) {
        const std::size_t node = (i + t * nodes / kThreads) % nodes;
        tables[t][node] = &base->out_mask_histograms().at(node);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(grids.value() - grids_before, 1u);
  const OutMaskHistograms fresh(base->routing());
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen.front());
    for (std::size_t node = 0; node < nodes; ++node) {
      // One published table per node, whoever built it, equal to a fresh
      // count.
      EXPECT_EQ(tables[t][node], tables.front()[node]) << node;
      EXPECT_EQ(*tables[t][node], fresh.at(node)) << node;
    }
  }
  EXPECT_EQ(seen.front()->port_count(), variant.facts().ports);
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
  const AnalysisArtifacts variant(vspec, base);
  const AnalysisArtifacts built(vspec);
  const auto& mesh = dynamic_cast<const Mesh2D&>(variant.topology());
  std::vector<LinkFault> faults;
  for (const std::string& token : vspec.failed_links) {
    faults.push_back(*parse_link_fault(token, nullptr));
  }
  expect_faulted(base_mesh, faults, mesh);
  // A context built without the base has the very same port graph.
  ASSERT_EQ(built.topology().port_count(), mesh.port_count());
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    EXPECT_EQ(built.topology().port_label(pid), mesh.port_label(pid));
    EXPECT_EQ(built.topology().link_target(pid), mesh.link_target(pid));
  }
  // A base of another shape is rejected, not silently used as the delta base.
  const auto other = std::make_shared<AnalysisArtifacts>(
      *parse_instance_spec("topology=torus size=5x6 routing=torus_xy escape=xy",
                           &error));
  EXPECT_THROW((void)AnalysisArtifacts(vspec, other), ContractViolation);
}

}  // namespace
}  // namespace genoc
