// Static-analyzer suite: every rule has a positive run (a clean preset-shaped
// spec analyzes clean) and a seeded-mutant negative (a deliberately broken
// model trips exactly that rule, with its stable diagnostic code). The
// mutants inject through Analyzer::run(spec, topology, routing, escape) — the
// documented injection point — so no fake instances are registered. Also
// covers the --rules selection contract (from_rule_names) and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/rule.hpp"
#include "cli/analyze_json.hpp"
#include "instance/spec.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "topology/mesh.hpp"
#include "topology/port.hpp"
#include "util/thread_pool.hpp"
#include "verify/artifacts.hpp"
#include "verify/diagnostics.hpp"

namespace genoc {
namespace {

using cli::analyze_report_json;

InstanceSpec spec_or_die(const std::string& text) {
  std::string error;
  const std::optional<InstanceSpec> spec = parse_instance_spec(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(InstanceSpec{});
}

/// Analyzes the constituents built from \p text's analysis prefix.
AnalyzeReport analyze_spec(const Analyzer& analyzer, const std::string& text) {
  const InstanceSpec spec = spec_or_die(text);
  AnalysisArtifacts artifacts(spec);
  return analyzer.run(spec, artifacts);
}

bool has_code(const AnalyzeReport& report, const std::string& code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

/// True iff every warning/error finding came from \p stage — the "trips
/// exactly its rule" property of a seeded mutant.
bool findings_only_from(const AnalyzeReport& report, const std::string& stage) {
  return std::all_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) {
                       return d.severity == Severity::kInfo || d.stage == stage;
                     });
}

const StageStats& stats_of(const AnalyzeReport& report,
                           const std::string& rule) {
  for (const StageStats& stats : report.rules) {
    if (stats.stage == rule) {
      return stats;
    }
  }
  ADD_FAILURE() << "no stats for rule " << rule;
  static const StageStats kEmpty;
  return kEmpty;
}

// ---------------------------------------------------------------------------
// Seeded mutants. Each breaks exactly one modelled property; the spec's
// routing key is chosen so the unrelated rules skip or stay clean.
// ---------------------------------------------------------------------------

/// Grid mutant base: cardinal OUT ports forward along their link, Local OUT
/// terminates — only the IN-port decision differs per mutant.
class GridMutant : public RoutingFunction {
 public:
  explicit GridMutant(const Mesh2D& mesh) : RoutingFunction(mesh) {}
  bool is_deterministic() const override { return true; }

 protected:
  bool forward_out(const Port& p, std::vector<Port>& out) const {
    if (p.dir != Direction::kOut) {
      return false;
    }
    if (p.name != PortName::kLocal) {
      // The topology-aware next_in: wrap links exist on tori.
      out.push_back(mesh().next_in(p));
    }
    return true;
  }
};

/// Totality mutant: messages entering node (2,1) toward any other node are
/// simply dropped — the reachable state yields no next hop.
class DropAtNode final : public GridMutant {
 public:
  using GridMutant::GridMutant;
  std::string name() const override { return "drop-at-node"; }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    if (forward_out(p, out)) {
      return;
    }
    if (p.x == 2 && p.y == 1 && !(d.x == 2 && d.y == 1)) {
      return;  // the seeded hole
    }
    XYRouting xy(mesh());
    xy.append_next_hops(p, d, out);
  }
};

/// Minimality mutant: injections at (0,0) toward the same column overshoot
/// East first (distance grows), then XY recovers. is_minimal() stays true —
/// the lie the totality rule must catch.
class OvershootInjection final : public GridMutant {
 public:
  using GridMutant::GridMutant;
  std::string name() const override { return "overshoot-injection"; }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    if (forward_out(p, out)) {
      return;
    }
    if (p.name == PortName::kLocal && p.x == 0 && p.y == 0 && d.x == 0 &&
        d.y > 0) {
      out.push_back(trans(p, PortName::kEast, Direction::kOut));
      return;
    }
    XYRouting xy(mesh());
    xy.append_next_hops(p, d, out);
  }
};

/// Uniformity mutant: routes exactly like XY but the published node mask of
/// node (0,0) claims an extra East hop — the mask/hop-set divergence that
/// would silently corrupt the zero-storage closure tier.
class LyingMask final : public GridMutant {
 public:
  explicit LyingMask(const Mesh2D& mesh) : GridMutant(mesh), inner_(mesh) {}
  std::string name() const override { return "lying-mask"; }
  bool node_uniform() const override { return true; }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    inner_.append_next_hops(p, d, out);
  }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override {
    std::uint8_t mask = inner_.node_out_mask(x, y, dest);
    if (x == 0 && y == 0) {
      mask |= port_name_bit(PortName::kEast);
    }
    return mask;
  }

 private:
  XYRouting inner_;
};

/// Escape mutant 1: an escape lane that only ever moves East. On a torus
/// that is a ring of dependencies — the cyclic sub-network the Duato
/// precondition forbids.
class AlwaysEast final : public GridMutant {
 public:
  using GridMutant::GridMutant;
  std::string name() const override { return "always-east"; }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    if (forward_out(p, out)) {
      return;
    }
    if (p.x == d.x && p.y == d.y) {
      out.push_back(trans(p, PortName::kLocal, Direction::kOut));
    } else {
      out.push_back(trans(p, PortName::kEast, Direction::kOut));
    }
  }
};

/// Escape mutant 2: an XY escape lane that selects nothing at node (1,1) —
/// a coverage hole in the claimed sub-network. Mask and hops agree, so the
/// node-uniformity claim itself holds.
class HoleyEscape final : public GridMutant {
 public:
  explicit HoleyEscape(const Mesh2D& mesh) : GridMutant(mesh), inner_(mesh) {}
  std::string name() const override { return "holey-escape"; }
  bool node_uniform() const override { return true; }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    if (p.dir == Direction::kIn && p.x == 1 && p.y == 1) {
      return;
    }
    inner_.append_next_hops(p, d, out);
  }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override {
    if (x == 1 && y == 1) {
      return 0;
    }
    return inner_.node_out_mask(x, y, dest);
  }

 private:
  XYRouting inner_;
};

/// Escape mutant 3: an XY escape lane whose hops from the in-ports of node
/// (2,2) are dropped while its published mask stays XY's — the lie the
/// node-granular escape analysis would silently trust.
class LyingEscapeHops final : public GridMutant {
 public:
  explicit LyingEscapeHops(const Mesh2D& mesh)
      : GridMutant(mesh), inner_(mesh) {}
  std::string name() const override { return "lying-escape-hops"; }
  bool node_uniform() const override { return true; }
  void append_next_hops(const Port& p, const Port& d,
                        std::vector<Port>& out) const override {
    if (p.dir == Direction::kIn && p.x == 2 && p.y == 2) {
      return;
    }
    inner_.append_next_hops(p, d, out);
  }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override {
    return inner_.node_out_mask(x, y, dest);
  }

 private:
  XYRouting inner_;
};

/// Turn mutant: XY, except that toward the one destination \p dest the
/// column x0 < dest.x, south of the destination's row, first climbs North
/// to that row and only then turns East. Every turn on the detour is legal
/// under XY except the one at (x0, dest.y): travelling North, out East.
/// Node-uniform by construction, so only `turns` can see it.
class LateEastTurn final : public NodeUniformRouting {
 public:
  LateEastTurn(const Mesh2D& mesh, std::int32_t x0, Port dest)
      : NodeUniformRouting(mesh), inner_(mesh), x0_(x0), dest_(dest) {}
  std::string name() const override { return "late-east-turn"; }
  bool is_deterministic() const override { return true; }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override {
    if (x == x0_ && y > dest.y && dest.x == dest_.x && dest.y == dest_.y) {
      return port_name_bit(PortName::kNorth);
    }
    return inner_.node_out_mask(x, y, dest);
  }

 private:
  XYRouting inner_;
  std::int32_t x0_;
  Port dest_;
};

// ---------------------------------------------------------------------------
// Registry and selection contract.
// ---------------------------------------------------------------------------

TEST(RuleRegistry, RegistersTheSevenRulesInOrder) {
  const std::vector<std::string> expected = {
      "spec_sanity", "turns",        "uniformity",  "totality",
      "escape",      "fault_sanity", "connectivity"};
  EXPECT_EQ(RuleRegistry::global().names(), expected);
  EXPECT_EQ(Analyzer::default_rule_names(), expected);
  for (const AnalysisRule* rule : RuleRegistry::global().rules()) {
    EXPECT_NE(rule->description()[0], '\0') << rule->name();
    EXPECT_EQ(RuleRegistry::global().find(rule->name()), rule);
  }
  EXPECT_EQ(RuleRegistry::global().find("nope"), nullptr);
}

TEST(RuleRegistry, CheapSubsetSkipsTheClosureHeavySweeps) {
  const std::vector<std::string> expected = {"spec_sanity", "turns",
                                             "uniformity"};
  EXPECT_EQ(Analyzer::cheap_rule_names(), expected);
  EXPECT_EQ(Analyzer::cheap().rule_names(), expected);
}

TEST(AnalyzerSelection, UnknownRuleIsRejected) {
  std::string error;
  EXPECT_FALSE(Analyzer::from_rule_names({"turns", "nope"}, &error));
  EXPECT_NE(error.find("unknown analysis rule 'nope'"), std::string::npos)
      << error;
}

TEST(AnalyzerSelection, DuplicateRuleIsRejected) {
  std::string error;
  EXPECT_FALSE(Analyzer::from_rule_names({"turns", "turns"}, &error));
  EXPECT_NE(error.find("duplicate analysis rule 'turns'"), std::string::npos)
      << error;
}

TEST(AnalyzerSelection, EmptySelectionIsRejected) {
  std::string error;
  EXPECT_FALSE(Analyzer::from_rule_names({}, &error));
  EXPECT_NE(error.find("empty rule selection"), std::string::npos) << error;
}

TEST(AnalyzerSelection, SelectionPreservesTheGivenOrder) {
  std::string error;
  const std::optional<Analyzer> analyzer =
      Analyzer::from_rule_names({"uniformity", "spec_sanity"}, &error);
  ASSERT_TRUE(analyzer.has_value()) << error;
  const std::vector<std::string> expected = {"uniformity", "spec_sanity"};
  EXPECT_EQ(analyzer->rule_names(), expected);
}

// ---------------------------------------------------------------------------
// Positive runs: clean preset-shaped specs analyze clean.
// ---------------------------------------------------------------------------

TEST(AnalyzerPositive, MeshXyIsCleanUnderEveryRule) {
  const AnalyzeReport report =
      analyze_spec(Analyzer::standard(), "topology=mesh size=8x8 routing=xy");
  EXPECT_TRUE(report.clean()) << analyze_report_json(report);
  ASSERT_EQ(report.rules.size(), 7u);
  EXPECT_GT(report.checks, 0u);
  EXPECT_TRUE(has_code(report, "sanity-ok"));
  EXPECT_TRUE(has_code(report, "turns-conform"));
  EXPECT_TRUE(has_code(report, "uniformity-by-construction"));
  EXPECT_TRUE(has_code(report, "totality-holds"));
  EXPECT_TRUE(has_code(report, "net-connected"));
  EXPECT_FALSE(stats_of(report, "escape").ran);        // no escape lane declared
  EXPECT_FALSE(stats_of(report, "fault_sanity").ran);  // no failed= links
}

TEST(AnalyzerPositive, TorusEscapeLaneIsCoveredAndAcyclic) {
  const AnalyzeReport report =
      analyze_spec(Analyzer::standard(),
                   "topology=torus size=4x4 routing=torus_xy escape=xy");
  EXPECT_TRUE(report.clean()) << analyze_report_json(report);
  EXPECT_TRUE(stats_of(report, "escape").ran);
  EXPECT_TRUE(stats_of(report, "escape").passed);
  EXPECT_TRUE(has_code(report, "escape-covered"));
}

TEST(AnalyzerPositive, CheapSubsetIsCleanOnAdaptiveTurnModel) {
  const AnalyzeReport report = analyze_spec(
      Analyzer::cheap(), "topology=mesh size=6x6 routing=west_first");
  EXPECT_TRUE(report.clean()) << analyze_report_json(report);
  ASSERT_EQ(report.rules.size(), 3u);
  EXPECT_TRUE(stats_of(report, "turns").ran);
  EXPECT_TRUE(has_code(report, "turns-conform"));
}

// ---------------------------------------------------------------------------
// Seeded mutants: each trips exactly its rule, with its stable code.
// ---------------------------------------------------------------------------

TEST(AnalyzerMutant, InvalidSpecTripsSpecSanity) {
  InstanceSpec spec = spec_or_die("topology=mesh size=4x4 routing=xy");
  spec.routing = "bogus";  // programmatic specs bypass the parser
  const Mesh2D mesh(4, 4);
  const XYRouting routing(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, nullptr);
  EXPECT_EQ(report.findings(), 1u) << analyze_report_json(report);
  EXPECT_TRUE(has_code(report, "sanity-invalid-spec"));
  EXPECT_TRUE(findings_only_from(report, "spec_sanity"));
}

TEST(AnalyzerMutant, RedundantEscapeTripsSpecSanity) {
  InstanceSpec spec = spec_or_die("topology=mesh size=4x4 routing=xy");
  spec.escape = "xy";
  const Mesh2D mesh(4, 4);
  const XYRouting routing(mesh);
  const XYRouting escape(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, &escape);
  EXPECT_EQ(report.findings(), 1u) << analyze_report_json(report);
  EXPECT_TRUE(has_code(report, "sanity-escape-redundant"));
  EXPECT_TRUE(findings_only_from(report, "spec_sanity"));
}

TEST(AnalyzerMutant, EmptyWorkloadTripsSpecSanity) {
  InstanceSpec spec = spec_or_die("topology=mesh size=4x4 routing=xy");
  spec.messages = 0;
  const Mesh2D mesh(4, 4);
  const XYRouting routing(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, nullptr);
  EXPECT_EQ(report.findings(), 1u) << analyze_report_json(report);
  EXPECT_TRUE(has_code(report, "sanity-empty-workload"));
}

TEST(AnalyzerMutant, EscapeOnNegativeFixtureTripsSpecSanity) {
  InstanceSpec spec =
      spec_or_die("topology=mesh size=4x4 routing=fully_adaptive escape=xy");
  spec.expect_deadlock_free = false;
  const Mesh2D mesh(4, 4);
  const XYRouting routing(mesh);
  const XYRouting escape(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, &escape);
  EXPECT_EQ(report.findings(), 1u) << analyze_report_json(report);
  EXPECT_TRUE(has_code(report, "sanity-escape-expects-deadlock"));
  EXPECT_TRUE(has_code(report, "sanity-negative-fixture"));
}

TEST(AnalyzerMutant, ProhibitedTurnTripsTurnConformance) {
  // YX routing audited against the west_first discipline: the vertical
  // phase runs first, so the later turn into West is exactly the turn
  // west-first forbids — and it is closure-reachable.
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=4x4 routing=west_first");
  const Mesh2D mesh(4, 4);
  const YXRouting routing(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, nullptr);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_code(report, "turn-prohibited"));
  EXPECT_TRUE(has_code(report, "turns-violated"));
  EXPECT_TRUE(findings_only_from(report, "turns"))
      << analyze_report_json(report);
}

TEST(AnalyzerMutant, ProhibitedTurnOffTheSamplingStrideTripsTurns) {
  // On a 64x64 mesh a destination-sampled sweep on the default budget
  // visits every 20th destination: ceil(4,096 destinations x 40,448 ports
  // / 2^23). The mutant's one prohibited turn is taken only toward
  // (41,20), destination 1,321, which that stride skips; reading every turn
  // edge of the dependency graph finds it.
  const InstanceSpec spec = spec_or_die("topology=mesh size=64x64 routing=xy");
  const Mesh2D mesh(64, 64);
  const Port dest{41, 20, PortName::kLocal, Direction::kOut};
  const std::size_t dest_index = mesh.dest_index_of(mesh.id(dest));
  const std::uint64_t budget = AnalyzeOptions{}.state_budget;
  const std::uint64_t sampled_stride =
      (mesh.destination_count() * mesh.port_count() + budget - 1) / budget;
  ASSERT_EQ(sampled_stride, 20u);
  ASSERT_NE(dest_index % sampled_stride, 0u);

  const LateEastTurn routing(mesh, 10, dest);
  ThreadPool pool(4);
  for (ThreadPool* used : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const AnalyzeReport report =
        Analyzer::cheap().run(spec, mesh, routing, nullptr, {}, used);
    EXPECT_EQ(report.findings(), 2u) << analyze_report_json(report);
    EXPECT_TRUE(findings_only_from(report, "turns"))
        << analyze_report_json(report);
    ASSERT_TRUE(has_code(report, "turn-prohibited"));
    const Diagnostic& turn = *std::find_if(
        report.diagnostics.begin(), report.diagnostics.end(),
        [](const Diagnostic& d) { return d.code == "turn-prohibited"; });
    const std::vector<std::pair<std::string, std::string>> witness = {
        {"in_port", to_string(Port{10, 20, PortName::kSouth, Direction::kIn})},
        {"out_port",
         to_string(Port{10, 20, PortName::kEast, Direction::kOut})},
        {"destination", to_string(dest)},
        {"travel", "N"},
        {"column", "10"}};
    EXPECT_EQ(turn.witness, witness);
    EXPECT_TRUE(has_code(report, "turns-violated"));
  }
}

TEST(AnalyzerMutant, LyingNodeMaskTripsUniformity) {
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=4x4 routing=fully_adaptive");
  const Mesh2D mesh(4, 4);
  const LyingMask routing(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, nullptr);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_code(report, "uniformity-violated"));
  EXPECT_TRUE(has_code(report, "uniformity-refuted"));
  EXPECT_TRUE(findings_only_from(report, "uniformity"))
      << analyze_report_json(report);
}

TEST(AnalyzerMutant, DroppedMessagesTripTotality) {
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=4x4 routing=fully_adaptive");
  const Mesh2D mesh(4, 4);
  const DropAtNode routing(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, nullptr);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_code(report, "route-dead-end"));
  EXPECT_TRUE(has_code(report, "totality-violated"));
  EXPECT_TRUE(findings_only_from(report, "totality"))
      << analyze_report_json(report);
}

TEST(AnalyzerMutant, OvershootingHopTripsMinimality) {
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=4x4 routing=fully_adaptive");
  const Mesh2D mesh(4, 4);
  const OvershootInjection routing(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, nullptr);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_code(report, "route-nonminimal"));
  EXPECT_TRUE(findings_only_from(report, "totality"))
      << analyze_report_json(report);
}

TEST(AnalyzerMutant, CyclicEscapeLaneTripsEscapeCoverage) {
  const InstanceSpec spec =
      spec_or_die("topology=torus size=4x4 routing=torus_xy escape=xy");
  const Mesh2D mesh(4, 4, /*wrap_x=*/true, /*wrap_y=*/true);
  const TorusXYRouting routing(mesh);
  const AlwaysEast escape(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, &escape);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_code(report, "escape-cyclic"));
  EXPECT_TRUE(findings_only_from(report, "escape"))
      << analyze_report_json(report);
}

TEST(AnalyzerMutant, EscapeCoverageHoleTripsEscapeCoverage) {
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=4x4 routing=fully_adaptive escape=xy");
  const Mesh2D mesh(4, 4);
  const XYRouting routing(mesh);
  const HoleyEscape escape(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, &escape);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_code(report, "escape-partial"));
  EXPECT_TRUE(has_code(report, "escape-uncovered"));
  EXPECT_TRUE(findings_only_from(report, "escape"))
      << analyze_report_json(report);
}

TEST(AnalyzerMutant, LyingEscapeMaskTripsUniformity) {
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=4x4 routing=fully_adaptive escape=xy");
  const Mesh2D mesh(4, 4);
  const XYRouting routing(mesh);
  const LyingEscapeHops escape(mesh);
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, &escape);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_code(report, "uniformity-refuted"));
  EXPECT_TRUE(findings_only_from(report, "uniformity"))
      << analyze_report_json(report);
  // Every finding blames the escape lane; the routing audits clean.
  std::size_t violated = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code != "uniformity-violated") {
      continue;
    }
    ++violated;
    const auto function =
        std::find(d.witness.begin(), d.witness.end(),
                  std::pair<std::string, std::string>("function", "escape"));
    EXPECT_NE(function, d.witness.end()) << analyze_report_json(report);
  }
  EXPECT_GT(violated, 0u);
  // XY is node-uniform by construction and audits no pair; the escape
  // audit gets the full budget, every in-port toward every destination.
  const AnalyzeReport routing_only =
      Analyzer::standard().run(spec, mesh, routing, nullptr);
  EXPECT_EQ(stats_of(routing_only, "uniformity").checks, 0u);
  EXPECT_TRUE(has_code(routing_only, "uniformity-by-construction"));
  std::uint64_t in_ports = 0;
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    in_ports += mesh.dir_of(pid) == Direction::kIn ? 1 : 0;
  }
  EXPECT_EQ(stats_of(report, "uniformity").checks,
            mesh.destination_count() * in_ports);
}

// ---------------------------------------------------------------------------
// Report plumbing.
// ---------------------------------------------------------------------------

TEST(AnalyzeReportTest, FindingsCountIgnoresInfoRecords) {
  AnalyzeReport report;
  report.diagnostics.push_back({"spec_sanity", Severity::kInfo, "sanity-ok",
                                "fine", {}});
  EXPECT_TRUE(report.clean());
  report.diagnostics.push_back({"totality", Severity::kError,
                                "route-dead-end", "stuck", {}});
  EXPECT_EQ(report.findings(), 1u);
  EXPECT_FALSE(report.clean());
}

TEST(AnalyzeReportTest, CapAndBudgetOptionsBoundTheFindings) {
  // A drop-everything mutant on a bigger mesh floods route-dead-end; the
  // per-code cap keeps the report bounded while the summary keeps totals.
  const InstanceSpec spec =
      spec_or_die("topology=mesh size=4x4 routing=fully_adaptive");
  const Mesh2D mesh(4, 4);
  const DropAtNode routing(mesh);
  AnalyzeOptions options;
  options.max_findings_per_code = 2;
  const AnalyzeReport report =
      Analyzer::standard().run(spec, mesh, routing, nullptr, options);
  std::size_t dead_end_records = 0;
  for (const Diagnostic& diagnostic : report.diagnostics) {
    dead_end_records += diagnostic.code == "route-dead-end" ? 1 : 0;
  }
  EXPECT_EQ(dead_end_records, 2u);
  EXPECT_TRUE(has_code(report, "totality-violated"));
}

TEST(AnalyzeReportTest, JsonRowCarriesRulesAndDiagnostics) {
  const AnalyzeReport report =
      analyze_spec(Analyzer::cheap(), "topology=mesh size=4x4 routing=xy");
  const std::string json = analyze_report_json(report);
  EXPECT_NE(json.find("\"instance\":"), std::string::npos);
  EXPECT_NE(json.find("\"rules\":"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\":"), std::string::npos);
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("sanity-ok"), std::string::npos);
}

}  // namespace
}  // namespace genoc
