// The mask-folding and graph-reading analyzer rules against their
// oracles. `uniformity` folds hops into name masks over the sampled
// destinations, and `turns` reads the turn edges of a dependency graph
// whose build shards over the pool the Analyzer is given; both must report
// exactly what the oracles in uniformity_oracle.hpp / turns_oracle.hpp
// report — probe count, violation count and the ordered, capped
// diagnostics — without a pool and on pools of 1, 4 and 8 threads. Covers
// the registry presets, seeded grid and id-native mutants at the edges of
// the mask kernel's equality argument, and the cap order when violations
// are spread over the whole destination range.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "deadlock/depgraph.hpp"
#include "escape_testing.hpp"
#include "instance/registry.hpp"
#include "instance/spec.hpp"
#include "routing/cmesh_dor.hpp"
#include "routing/turns.hpp"
#include "routing/xy.hpp"
#include "topology/cmesh.hpp"
#include "topology/mesh.hpp"
#include "turns_oracle.hpp"
#include "uniformity_oracle.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"
#include "verify/artifacts.hpp"

namespace genoc {
namespace {

InstanceSpec spec_or_die(const std::string& text) {
  std::string error;
  const std::optional<InstanceSpec> spec = parse_instance_spec(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(InstanceSpec{});
}

Analyzer single_rule(const std::string& rule) {
  std::string error;
  std::optional<Analyzer> analyzer = Analyzer::from_rule_names({rule}, &error);
  EXPECT_TRUE(analyzer.has_value()) << error;
  return *std::move(analyzer);
}

/// nullptr (sequential) and pools of 1, 4 and 8 threads, shared by every
/// test of the suite.
const std::vector<ThreadPool*>& pools() {
  static std::vector<std::unique_ptr<ThreadPool>> owned = [] {
    std::vector<std::unique_ptr<ThreadPool>> made;
    for (const std::size_t threads : {1, 4, 8}) {
      made.push_back(std::make_unique<ThreadPool>(threads));
    }
    return made;
  }();
  static const std::vector<ThreadPool*> views = {nullptr, owned[0].get(),
                                                 owned[1].get(),
                                                 owned[2].get()};
  return views;
}

std::string pool_label(const ThreadPool* pool) {
  return pool == nullptr ? "no pool"
                         : std::to_string(pool->thread_count()) + " threads";
}

/// The violation count a rule's summary diagnostic carries (0 when the
/// summary is the passing record).
std::uint64_t summary_violations(const std::vector<Diagnostic>& diagnostics) {
  if (diagnostics.empty()) {
    return 0;
  }
  for (const auto& [key, value] : diagnostics.back().witness) {
    if (key == "violations") {
      return std::stoull(value);
    }
  }
  return 0;
}

/// Runs \p rule alone at every pool setting and checks each report field
/// for field against \p oracle.
void expect_rule_matches(const std::string& rule, const InstanceSpec& spec,
                         const Topology& topology,
                         const RoutingFunction& routing,
                         const RoutingFunction* escape,
                         const RuleOracleResult& oracle,
                         const AnalyzeOptions& options = {}) {
  const Analyzer analyzer = single_rule(rule);
  for (ThreadPool* pool : pools()) {
    SCOPED_TRACE(display_name(spec) + " " + rule + ", " + pool_label(pool));
    const AnalyzeReport report =
        analyzer.run(spec, topology, routing, escape, options, pool);
    ASSERT_EQ(report.rules.size(), 1u);
    EXPECT_EQ(report.rules[0].checks, oracle.checks);
    EXPECT_EQ(summary_violations(report.diagnostics), oracle.violations);
    EXPECT_EQ(report.diagnostics, oracle.diagnostics);
  }
}

void expect_uniformity_matches(const InstanceSpec& spec,
                               const Topology& topology,
                               const RoutingFunction& routing,
                               const RoutingFunction* escape,
                               const AnalyzeOptions& options = {}) {
  expect_rule_matches("uniformity", spec, topology, routing, escape,
                      uniformity_oracle(topology, routing, escape, options),
                      options);
}

std::size_t count_code(const std::vector<Diagnostic>& diagnostics,
                       const std::string& code) {
  std::size_t count = 0;
  for (const Diagnostic& diagnostic : diagnostics) {
    count += diagnostic.code == code ? 1 : 0;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Every registry preset, the heavy mesh256-xy included.
// ---------------------------------------------------------------------------

TEST(AnalyzeShards, UniformityMatchesTheOracleOnEveryPreset) {
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    AnalysisArtifacts artifacts(spec);
    const RuleOracleResult oracle =
        uniformity_oracle(artifacts.topology(), artifacts.routing(),
                          artifacts.escape_routing(), AnalyzeOptions{});
    expect_uniformity_matches(spec, artifacts.topology(), artifacts.routing(),
                              artifacts.escape_routing());
    EXPECT_EQ(oracle.violations, 0u) << display_name(spec);
  }
}

TEST(AnalyzeShards, TurnsMatchTheOracleOnEveryPreset) {
  // The oracle walks every destination's closure row: ~1 s for each 64x64
  // preset, ~12 s for mesh128-xy and far more for mesh256-xy, so the two
  // presets past 64x64 are left to the closed-form turn counts of
  // HeadlinePairCountsAreUnchanged.
  std::size_t linted = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    AnalysisArtifacts artifacts(spec);
    if (artifacts.routing().grid() == nullptr ||
        !has_turn_discipline(spec.routing) ||
        artifacts.topology().destination_count() > 64 * 64) {
      continue;
    }
    ++linted;
    expect_rule_matches(
        "turns", spec, artifacts.topology(), artifacts.routing(),
        artifacts.escape_routing(),
        turns_oracle(artifacts.routing(), spec.routing, AnalyzeOptions{}));
  }
  EXPECT_GE(linted, 10u);
}

TEST(AnalyzeShards, HeadlinePairCountsAreUnchanged) {
  // These presets route (and escape) by NodeUniformRouting functions, so
  // `uniformity` audits no pair and records the claim as by construction.
  // `turns` counts the turn edges. On a W x H XY mesh a W or E in-port
  // continues straight where the next column exists and turns N or S
  // where those rows exist; a N or S in-port only continues straight:
  // 2((W-2)H + 2(W-1)(H-1)) + 2W(H-2): 520,196 at 256x256 and 129,028 at
  // 128x128 (mesh128-xy, the other preset the oracle skips). On the 64x64
  // torus every node has all four in-ports: a horizontal one continues or
  // turns N or S (3 turns), a vertical one only continues (1), so
  // 8 x 4,096 = 32,768.
  const InstanceRegistry& registry = InstanceRegistry::global();
  const struct {
    const char* preset;
    std::uint64_t turns;
  } expected[] = {{"mesh256-xy", 520196},
                  {"mesh128-xy", 129028},
                  {"torus64-xy-escape", 32768}};
  for (const auto& row : expected) {
    const InstanceSpec* spec = registry.find(row.preset);
    ASSERT_NE(spec, nullptr) << row.preset;
    AnalysisArtifacts artifacts(*spec);
    const AnalyzeReport report =
        Analyzer::cheap().run(*spec, artifacts, {}, pools()[2]);
    EXPECT_TRUE(report.clean()) << row.preset;
    for (const StageStats& stats : report.rules) {
      if (stats.stage == "uniformity") {
        EXPECT_EQ(stats.checks, 0u) << row.preset;
        EXPECT_FALSE(stats.ran) << row.preset;
      } else if (stats.stage == "turns") {
        EXPECT_EQ(stats.checks, row.turns) << row.preset;
      }
    }
    EXPECT_EQ(count_code(report.diagnostics, "uniformity-by-construction"),
              spec->escape.empty() ? 1u : 2u)
        << row.preset;
    EXPECT_EQ(count_code(report.diagnostics, "uniformity-audited"), 0u)
        << row.preset;
  }
}

// ---------------------------------------------------------------------------
// Grid mutants at the edges of the mask kernel. Each routes like XY and
// publishes XY's mask; only the in-port hops of node (1,1) — or of the
// corner (0,0) — gain one extra hop.
// ---------------------------------------------------------------------------

enum class ExtraHop {
  kDuplicate,         ///< XY's own hop a second time: violation
  kOffGrid,           ///< a port west of the grid: dropped
  kNeighbourPort,     ///< the East neighbour's existing West IN: violation
  kOwnNodeIn,         ///< the node's own North IN: violation
  kMissingBoundary,   ///< the corner's nonexistent West OUT: dropped
};

class ExtraHopXY final : public RoutingFunction {
 public:
  /// With \p node_uniform false the claim is withdrawn, so the sweeps run
  /// in port mode over append_next_hops.
  ExtraHopXY(const Mesh2D& mesh, ExtraHop extra, bool node_uniform = true)
      : RoutingFunction(mesh),
        inner_(mesh),
        extra_(extra),
        node_uniform_(node_uniform) {}
  std::string name() const override { return "extra-hop-xy"; }
  bool is_deterministic() const override { return false; }
  bool node_uniform() const override { return node_uniform_; }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override {
    return inner_.node_out_mask(x, y, dest);
  }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    const std::size_t first = out.size();
    inner_.append_next_hops(p, d, out);
    if (p.dir != Direction::kIn) {
      return;
    }
    const bool corner = p.x == 0 && p.y == 0;
    const bool inner_node = p.x == 1 && p.y == 1;
    switch (extra_) {
      case ExtraHop::kDuplicate:
        if (inner_node) {
          out.push_back(out[first]);
        }
        break;
      case ExtraHop::kOffGrid:
        if (corner) {
          out.push_back(Port{-1, 0, PortName::kEast, Direction::kIn});
        }
        break;
      case ExtraHop::kNeighbourPort:
        if (inner_node) {
          out.push_back(Port{2, 1, PortName::kWest, Direction::kIn});
        }
        break;
      case ExtraHop::kOwnNodeIn:
        if (inner_node) {
          out.push_back(trans(p, PortName::kNorth, Direction::kIn));
        }
        break;
      case ExtraHop::kMissingBoundary:
        if (corner) {
          out.push_back(trans(p, PortName::kWest, Direction::kOut));
        }
        break;
    }
  }

 private:
  XYRouting inner_;
  ExtraHop extra_;
  bool node_uniform_;
};

void expect_extra_hop(ExtraHop extra, bool violates) {
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=5x4 routing=fully_adaptive");
  const Mesh2D mesh(5, 4);
  const ExtraHopXY routing(mesh, extra);
  const RuleOracleResult oracle =
      uniformity_oracle(mesh, routing, nullptr, AnalyzeOptions{});
  EXPECT_EQ(oracle.violations != 0, violates);
  expect_uniformity_matches(spec, mesh, routing, nullptr);
}

TEST(AnalyzeShards, DuplicateHopIsAViolation) {
  expect_extra_hop(ExtraHop::kDuplicate, true);
}

TEST(AnalyzeShards, OffGridHopIsDropped) {
  expect_extra_hop(ExtraHop::kOffGrid, false);
}

TEST(AnalyzeShards, HopOntoANeighboursPortIsAViolation) {
  expect_extra_hop(ExtraHop::kNeighbourPort, true);
}

TEST(AnalyzeShards, OwnNodeInHopIsAViolation) {
  expect_extra_hop(ExtraHop::kOwnNodeIn, true);
}

TEST(AnalyzeShards, HopToAMissingBoundaryOutPortIsDropped) {
  expect_extra_hop(ExtraHop::kMissingBoundary, false);
}

TEST(AnalyzeShards, PortModeHopOffTheNodeIsAContractViolation) {
  // The sweeps record an in-port's edges as its node's out-name bits, so a
  // port-mode hop onto the neighbour's West IN has no bit to land in: the
  // fast builder refuses it, with and without a pool. The generic oracle
  // still builds the graph, extra edge included.
  const Mesh2D mesh(5, 4);
  const ExtraHopXY routing(mesh, ExtraHop::kNeighbourPort,
                           /*node_uniform=*/false);
  ASSERT_FALSE(routing.has_in_port_unions());
  EXPECT_THROW(build_dep_graph_fast(routing), ContractViolation);
  ThreadPool pool(4);
  EXPECT_THROW(build_dep_graph_fast(routing, &pool), ContractViolation);
  const PortDepGraph generic = build_dep_graph(routing);
  EXPECT_TRUE(generic.graph.has_edge(
      mesh.id(Port{1, 1, PortName::kLocal, Direction::kIn}),
      mesh.id(Port{2, 1, PortName::kWest, Direction::kIn})));
}

// ---------------------------------------------------------------------------
// An id-native mutant: CMesh-DOR whose in-ports at router 5 also emit the
// router's first terminal out-port. Toward any other destination the mask
// does not name that port; toward T0 itself the hop repeats.
// ---------------------------------------------------------------------------

/// Name index of T0 in the cmesh port-name table (E, W, N, S, T0, ...).
constexpr std::size_t kFirstTerminal = 4;

class StrayTerminalDOR final : public RoutingFunction {
 public:
  explicit StrayTerminalDOR(const CMeshTopology& topology)
      : RoutingFunction(topology), inner_(topology) {}
  std::string name() const override { return "stray-terminal-dor"; }
  bool is_deterministic() const override { return false; }
  bool id_native() const override { return true; }
  bool node_uniform() const override { return true; }
  std::uint64_t out_mask_id(std::size_t node,
                            std::size_t dest_index) const override {
    return inner_.out_mask_id(node, dest_index);
  }
  void append_next_hop_ids(PortId current, std::size_t dest_index,
                           std::vector<PortId>& out) const override {
    inner_.append_next_hop_ids(current, dest_index, out);
    const Topology& topo = topology();
    if (topo.dir_of(current) == Direction::kIn && topo.node_of(current) == 5) {
      out.push_back(topo.slot_id(5, kFirstTerminal, Direction::kOut));
    }
  }

 private:
  CMeshDORRouting inner_;
};

TEST(AnalyzeShards, IdNativeMutantMatchesTheOracle) {
  const InstanceSpec spec = spec_or_die(
      "topology=cmesh size=4x4 concentration=4 routing=cmesh_dor");
  const CMeshTopology cmesh(4, 4, 4);
  const StrayTerminalDOR routing(cmesh);
  const RuleOracleResult oracle =
      uniformity_oracle(cmesh, routing, nullptr, AnalyzeOptions{});
  // Every in-port of router 5 at every sampled destination contradicts.
  EXPECT_GT(oracle.violations, 0u);
  expect_uniformity_matches(spec, cmesh, routing, nullptr);
}

// ---------------------------------------------------------------------------
// Cap order: violations sparse enough that the first eight come from three
// destinations far apart (in different shards of a pooled graph build).
// ---------------------------------------------------------------------------

/// Destinations whose index is 5 mod 23: 11 of a 16x16 mesh's 256, spread
/// over the whole range (a 4-thread pool cuts it into 32 shards of 8).
bool sparse_destination(const Mesh2D& mesh, const Port& dest) {
  return (dest.y * mesh.width() + dest.x) % 23 == 5;
}

/// XY whose published mask at the corner (0,0) also claims South toward
/// the sparse destinations (all east of the corner, so XY goes East): each
/// contributes three violations, one per in-port of the corner.
class SparseLyingMask final : public RoutingFunction {
 public:
  explicit SparseLyingMask(const Mesh2D& mesh)
      : RoutingFunction(mesh), inner_(mesh) {}
  std::string name() const override { return "sparse-lying-mask"; }
  bool is_deterministic() const override { return true; }
  bool node_uniform() const override { return true; }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    inner_.append_next_hops(p, d, out);
  }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override {
    std::uint8_t mask = inner_.node_out_mask(x, y, dest);
    if (x == 0 && y == 0 && sparse_destination(mesh(), dest)) {
      mask |= port_name_bit(PortName::kSouth);
    }
    return mask;
  }

 private:
  XYRouting inner_;
};

/// XY plus, toward the sparse destinations, an East hop from the South
/// in-port one row below the destination: a message travelling North
/// turns East, which the XY discipline prohibits. Nine sparse destinations
/// have such a reachable state and an East neighbour; each detour then
/// heads back West, a reversal, so there are 18 prohibited turn edges,
/// two per destination, at 18 distinct in-ports.
class SparseTurnXY final : public RoutingFunction {
 public:
  explicit SparseTurnXY(const Mesh2D& mesh)
      : RoutingFunction(mesh), inner_(mesh) {}
  std::string name() const override { return "sparse-turn-xy"; }
  bool is_deterministic() const override { return false; }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    inner_.append_next_hops(p, d, out);
    if (p.dir == Direction::kIn && p.name == PortName::kSouth &&
        p.x == d.x && p.y == d.y + 1 && sparse_destination(mesh(), d)) {
      out.push_back(trans(p, PortName::kEast, Direction::kOut));
    }
  }

 private:
  XYRouting inner_;
};

/// Checks the capped findings against the oracle's and that they come
/// from at least \p min_destinations distinct destinations.
void expect_cap_order(const std::string& rule, const InstanceSpec& spec,
                      const Mesh2D& mesh, const RoutingFunction& routing,
                      const RuleOracleResult& oracle,
                      std::size_t min_destinations) {
  const AnalyzeOptions options;
  ASSERT_GT(oracle.violations, options.max_findings_per_code);
  // The capped findings, then the summary record.
  ASSERT_EQ(oracle.diagnostics.size(), options.max_findings_per_code + 1);
  std::vector<std::string> destinations;
  for (const Diagnostic& diagnostic : oracle.diagnostics) {
    for (const auto& [key, value] : diagnostic.witness) {
      if (key == "destination" &&
          (destinations.empty() || destinations.back() != value)) {
        destinations.push_back(value);
      }
    }
  }
  EXPECT_GE(destinations.size(), min_destinations);
  expect_rule_matches(rule, spec, mesh, routing, nullptr, oracle, options);
}

TEST(AnalyzeShards, UniformityCapOrderHoldsAcrossShards) {
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=16x16 routing=fully_adaptive");
  const Mesh2D mesh(16, 16);
  const SparseLyingMask routing(mesh);
  const RuleOracleResult oracle =
      uniformity_oracle(mesh, routing, nullptr, AnalyzeOptions{});
  EXPECT_EQ(oracle.violations, 33u);
  EXPECT_EQ(count_code(oracle.diagnostics, "uniformity-violated"), 8u);
  expect_cap_order("uniformity", spec, mesh, routing, oracle, 3);
}

TEST(AnalyzeShards, UniformityCapSpansTheRoutingAndEscapeAudits) {
  // The routing lies at 11 destinations, the escape lane at node (1,1)
  // toward every one: the first eight findings are all the routing's, and
  // the escape audit only adds to the count.
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=16x16 routing=fully_adaptive escape=xy");
  const Mesh2D mesh(16, 16);
  const SparseLyingMask routing(mesh);
  const ExtraHopXY escape(mesh, ExtraHop::kDuplicate);
  const RuleOracleResult oracle =
      uniformity_oracle(mesh, routing, &escape, AnalyzeOptions{});
  EXPECT_GT(oracle.violations, 33u);
  expect_uniformity_matches(spec, mesh, routing, &escape);
}

TEST(AnalyzeShards, TurnsCapOrderHoldsAcrossShards) {
  // `turns` reports in port order: the first eight of the 18 prohibited
  // turn edges by in-port id, each with the lowest destination taking it,
  // with the graph built without a pool and sharded over 1, 4 and 8
  // threads.
  const InstanceSpec spec = spec_or_die("topology=mesh size=16x16 routing=xy");
  const Mesh2D mesh(16, 16);
  const SparseTurnXY routing(mesh);
  const RuleOracleResult oracle =
      turns_oracle(routing, "xy", AnalyzeOptions{});
  EXPECT_EQ(oracle.violations, 18u);
  std::vector<PortId> in_ports;
  for (const Diagnostic& diagnostic : oracle.diagnostics) {
    for (const auto& [key, value] : diagnostic.witness) {
      if (key != "in_port") {
        continue;
      }
      for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
        if (to_string(mesh.port(pid)) == value) {
          in_ports.push_back(pid);
        }
      }
    }
  }
  ASSERT_EQ(in_ports.size(), AnalyzeOptions{}.max_findings_per_code);
  EXPECT_TRUE(std::is_sorted(in_ports.begin(), in_ports.end()));
  expect_cap_order("turns", spec, mesh, routing, oracle, 4);
}

// ---------------------------------------------------------------------------
// Who is audited: every grid function but Odd-Even is a NodeUniformRouting
// and holds the claim by construction; the id-native families and the
// hand-written mutants are audited, at every pool setting.
// ---------------------------------------------------------------------------

/// The `function` witnesses of the uniformity-by-construction records.
std::vector<std::string> by_construction_roles(
    const std::vector<Diagnostic>& diagnostics) {
  std::vector<std::string> roles;
  for (const Diagnostic& diagnostic : diagnostics) {
    if (diagnostic.code != "uniformity-by-construction") {
      continue;
    }
    for (const auto& [key, value] : diagnostic.witness) {
      if (key == "function") {
        roles.push_back(value);
      }
    }
  }
  return roles;
}

TEST(AnalyzeShards, UniformityAuditsOnlyClaimsThatCanBeWrong) {
  const Analyzer analyzer = single_rule("uniformity");
  using Roles = std::vector<std::string>;
  const struct {
    const char* spec;
    Roles roles;
  } unaudited[] = {
      {"topology=mesh size=6x5 routing=xy", {"routing"}},
      {"topology=mesh size=6x5 routing=yx", {"routing"}},
      {"topology=mesh size=6x5 routing=west_first", {"routing"}},
      {"topology=mesh size=6x5 routing=north_last", {"routing"}},
      {"topology=mesh size=6x5 routing=negative_first", {"routing"}},
      {"topology=mesh size=6x5 routing=fully_adaptive escape=xy",
       {"routing", "escape"}},
      {"topology=mesh size=6x5 routing=fully_adaptive escape=yx",
       {"routing", "escape"}},
      {"topology=torus size=6x5 routing=torus_xy escape=xy",
       {"routing", "escape"}},
      {"topology=mesh size=6x5 routing=odd_even escape=yx", {"escape"}},
      {"topology=mesh size=6x5 routing=odd_even", {}},
  };
  for (const auto& row : unaudited) {
    const InstanceSpec spec = spec_or_die(row.spec);
    AnalysisArtifacts artifacts(spec);
    for (ThreadPool* pool : pools()) {
      SCOPED_TRACE(std::string(row.spec) + ", " + pool_label(pool));
      const AnalyzeReport report = analyzer.run(spec, artifacts, {}, pool);
      ASSERT_EQ(report.rules.size(), 1u);
      EXPECT_FALSE(report.rules[0].ran);
      EXPECT_FALSE(report.rules[0].skip_reason.empty());
      EXPECT_EQ(report.rules[0].checks, 0u);
      EXPECT_EQ(by_construction_roles(report.diagnostics), row.roles);
      EXPECT_EQ(report.diagnostics,
                uniformity_oracle(artifacts.topology(), artifacts.routing(),
                                  artifacts.escape_routing(), {})
                    .diagnostics);
    }
  }

  // The id-native claimants keep their audit and its pair counts.
  const struct {
    const char* preset;
    std::uint64_t pairs;
  } audited[] = {{"cmesh4-dor", 7168}, {"dragonfly9-min", 18144}};
  for (const auto& row : audited) {
    const InstanceSpec* spec = InstanceRegistry::global().find(row.preset);
    ASSERT_NE(spec, nullptr) << row.preset;
    AnalysisArtifacts artifacts(*spec);
    for (ThreadPool* pool : pools()) {
      SCOPED_TRACE(std::string(row.preset) + ", " + pool_label(pool));
      const AnalyzeReport report = analyzer.run(*spec, artifacts, {}, pool);
      ASSERT_EQ(report.rules.size(), 1u);
      EXPECT_TRUE(report.rules[0].ran);
      EXPECT_EQ(report.rules[0].checks, row.pairs);
      ASSERT_EQ(report.diagnostics.size(), 1u);
      EXPECT_EQ(report.diagnostics[0].code, "uniformity-audited");
    }
  }

  // Hand-written claimants are audited and still trip (expect_rule_matches
  // runs every pool setting against the oracle).
  const InstanceSpec mutant_spec =
      spec_or_die("topology=mesh size=5x4 routing=fully_adaptive escape=xy");
  const Mesh2D mesh(5, 4);
  for (const ExtraHop extra :
       {ExtraHop::kDuplicate, ExtraHop::kNeighbourPort, ExtraHop::kOwnNodeIn}) {
    const ExtraHopXY routing(mesh, extra);
    const RuleOracleResult oracle =
        uniformity_oracle(mesh, routing, nullptr, AnalyzeOptions{});
    EXPECT_GT(oracle.violations, 0u);
    EXPECT_EQ(oracle.diagnostics.back().code, "uniformity-refuted");
    expect_uniformity_matches(mutant_spec, mesh, routing, nullptr);
  }
  const Mesh2D wide(16, 16);  // SparseLyingMask lies toward index 5 mod 23
  const SparseLyingMask lying(wide);
  const RuleOracleResult lying_oracle =
      uniformity_oracle(wide, lying, nullptr, AnalyzeOptions{});
  EXPECT_EQ(lying_oracle.diagnostics.back().code, "uniformity-refuted");
  expect_uniformity_matches(
      spec_or_die("topology=mesh size=16x16 routing=fully_adaptive"), wide,
      lying, nullptr);

  // A punctured XY escape lane: its claim holds (audited, with the XY
  // routing recorded by construction), and the escape rule trips on it.
  const XYRouting xy(mesh);
  const HolePuncturedXY punctured(mesh);
  const RuleOracleResult punctured_oracle =
      uniformity_oracle(mesh, xy, &punctured, AnalyzeOptions{});
  EXPECT_EQ(by_construction_roles(punctured_oracle.diagnostics),
            Roles{"routing"});
  EXPECT_EQ(punctured_oracle.diagnostics.back().code, "uniformity-audited");
  expect_uniformity_matches(mutant_spec, mesh, xy, &punctured);
  const AnalyzeReport escape_report = single_rule("escape").run(
      mutant_spec, mesh, xy, &punctured, {}, pools()[2]);
  EXPECT_FALSE(escape_report.clean());
}

}  // namespace
}  // namespace genoc
