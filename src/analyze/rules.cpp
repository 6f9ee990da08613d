/// \file rules.cpp
/// \brief The built-in analyzer rules: spec sanity, turn-model
///        conformance, the node-uniformity audit, routing
///        totality/minimality, escape-lane coverage, fault-set sanity and
///        connectivity under faults.
///
/// Every rule is a static lint over the model constituents: read-only,
/// deterministic, budget-bounded (a fixed destination stride, or for
/// `turns` the dependency graph's edges), and emitting the same typed
/// Diagnostic records as the verify pipeline — with stable codes, so tests
/// and tooling match on the code, never on message text.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analyze/rule.hpp"
#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"
#include "routing/turns.hpp"
#include "topology/mesh.hpp"
#include "topology/port.hpp"
#include "util/require.hpp"

namespace genoc {

namespace {

Diagnostic make_diagnostic(
    const char* rule, Severity severity, std::string code, std::string message,
    std::vector<std::pair<std::string, std::string>> witness = {}) {
  Diagnostic diag;
  diag.stage = rule;
  diag.severity = severity;
  diag.code = std::move(code);
  diag.message = std::move(message);
  diag.witness = std::move(witness);
  return diag;
}

/// Deterministic destination stride: visiting every stride-th destination
/// keeps count * cost_per within \p budget. Stride 1 == exhaustive.
std::size_t stride_for(std::size_t count, std::uint64_t cost_per,
                       std::uint64_t budget) {
  const std::uint64_t total = static_cast<std::uint64_t>(count) * cost_per;
  if (count == 0 || budget == 0 || total <= budget) {
    return 1;
  }
  return static_cast<std::size_t>((total + budget - 1) / budget);
}

/// Wrap-aware hop distance between two nodes of a grid (the metric a
/// minimal routing must strictly decrease).
std::int64_t grid_distance(const Mesh2D& mesh, const Port& a, const Port& b) {
  std::int64_t dx = std::abs(static_cast<std::int64_t>(a.x) - b.x);
  std::int64_t dy = std::abs(static_cast<std::int64_t>(a.y) - b.y);
  if (mesh.wraps_x()) {
    dx = std::min(dx, mesh.width() - dx);
  }
  if (mesh.wraps_y()) {
    dy = std::min(dy, mesh.height() - dy);
  }
  return dx + dy;
}

/// One in-port's hops folded into out-port name bits (the uniformity
/// kernel): \p mask holds the names of its own-node out-port hops, \p hops
/// counts every existing hop, and \p exact turns false on a repeated name
/// or an existing hop that is not one of the node's out-ports.
struct HopFold {
  std::uint64_t mask = 0;
  std::size_t hops = 0;
  bool exact = true;

  void add_name(std::uint64_t bit) {
    exact = exact && (mask & bit) == 0;
    mask |= bit;
    ++hops;
  }
  void add_foreign() {
    exact = false;
    ++hops;
  }
};

/// R(in, dest) through the id adapter next_hop_ids_into, which drops a
/// grid hop to a port that does not exist; id-native functions (\p
/// id_native, hoisted out of the per-port loop: it saves a virtual call
/// per probe) are asked directly and emit existing ports only. So every
/// hop counts (an id past the port table is foreign, not a lookup); only
/// own-node OUT hops are name bits.
HopFold fold_id_hops(const RoutingFunction& routing, bool id_native,
                     const Topology& topo, PortId in, std::size_t node,
                     std::size_t dest_index, std::vector<PortId>& hops,
                     std::vector<Port>& scratch) {
  HopFold fold;
  hops.clear();
  if (id_native) {
    routing.append_next_hop_ids(in, dest_index, hops);
  } else {
    routing.next_hop_ids_into(in, dest_index, hops, scratch);
  }
  for (const PortId hop : hops) {
    if (hop < topo.port_count() && topo.node_of(hop) == node &&
        topo.dir_of(hop) == Direction::kOut) {
      fold.add_name(std::uint64_t{1} << topo.name_of(hop));
    } else {
      fold.add_foreign();
    }
  }
  return fold;
}

/// Rule 1: structural spec lint. Contradictory or vacuous key
/// combinations become stable-coded diagnostics instead of ad-hoc parse
/// errors — and specs constructed programmatically (bypassing
/// parse_instance_spec) get validate_spec's complaints surfaced the same
/// way.
class SpecSanityRule final : public AnalysisRule {
 public:
  const char* name() const override { return "spec_sanity"; }
  const char* description() const override {
    return "lint the spec for contradictory keys: invalid field "
           "combinations, an escape lane on an expected-deadlock fixture, "
           "escape identical to the primary routing, empty workloads";
  }

  StageStats run(AnalyzeContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    stats.ran = true;
    const InstanceSpec& spec = ctx.spec;
    std::size_t findings = 0;
    const auto emit = [&](Severity severity, std::string code,
                          std::string message) {
      if (severity != Severity::kInfo) {
        ++findings;
      }
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), severity, std::move(code), std::move(message)));
    };

    // Re-run the cross-field validation: a spec built in code (tests,
    // future campaign generators) can carry combinations the parser would
    // have rejected.
    stats.checks = 1;
    if (const std::string complaint = validate_spec(spec);
        !complaint.empty()) {
      emit(Severity::kError, "sanity-invalid-spec", complaint);
    }
    ++stats.checks;
    if (!spec.escape.empty() && !spec.expect_deadlock_free) {
      emit(Severity::kWarning, "sanity-escape-expects-deadlock",
           "spec declares escape lane '" + spec.escape +
               "' yet registers expect=deadlock — an escape lane exists "
               "to make the instance deadlock-free");
    }
    ++stats.checks;
    if (!spec.escape.empty() && spec.escape == spec.routing) {
      emit(Severity::kWarning, "sanity-escape-redundant",
           "escape lane '" + spec.escape +
               "' is the primary routing itself — the lane adds no "
               "deadlock-free sub-network");
    }
    ++stats.checks;
    if (spec.messages == 0 || spec.flits == 0) {
      emit(Severity::kWarning, "sanity-empty-workload",
           "workload is empty (messages=" + std::to_string(spec.messages) +
               " flits=" + std::to_string(spec.flits) +
               ") — simulated verification rows would be vacuous");
    }
    if (!spec.expect_deadlock_free) {
      emit(Severity::kInfo, "sanity-negative-fixture",
           "registered negative fixture: a reproduced deadlock is the "
           "expected verdict");
    }
    stats.passed = findings == 0;
    if (stats.passed) {
      emit(Severity::kInfo, "sanity-ok", "spec is internally consistent");
    }
    return stats;
  }
};

/// Rule 2: turn-model conformance. A turn is a dependency-graph edge from
/// a fabric IN port to a fabric OUT port of its node, and the graph holds
/// exactly the turns the routing emits on reachable states. Each is looked
/// up in the discipline's prohibited-turn table (routing/turns.hpp; travel
/// = opposite of the in-port name), so the lint is exact. Findings come
/// out in port order, each with the lowest destination taking the turn.
class TurnConformanceRule final : public AnalysisRule {
 public:
  const char* name() const override { return "turns"; }
  const char* description() const override {
    return "check that a turn-model/dimension-order routing never emits a "
           "prohibited turn on any reachable state (every turn edge of the "
           "dependency graph)";
  }

  StageStats run(AnalyzeContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    const Mesh2D* mesh = ctx.routing.grid();
    if (mesh == nullptr || !has_turn_discipline(ctx.spec.routing)) {
      stats.ran = false;
      stats.passed = true;
      stats.skip_reason = "routing '" + ctx.spec.routing +
                          "' has no static turn discipline to lint";
      return stats;
    }
    stats.ran = true;
    const Topology& topo = ctx.topology;
    const std::string& discipline = ctx.spec.routing;
    // [column parity][travel][out] over the cardinal names E, W, N, S,
    // which are grid name indices 0-3 (Local, the terminal, is 4).
    constexpr std::size_t kCardinal = 4;
    bool prohibited[2][kCardinal][kCardinal];
    for (std::size_t parity = 0; parity < 2; ++parity) {
      for (std::size_t travel = 0; travel < kCardinal; ++travel) {
        for (std::size_t out = 0; out < kCardinal; ++out) {
          prohibited[parity][travel][out] = turn_prohibited(
              discipline, static_cast<std::int32_t>(parity),
              static_cast<PortName>(travel), static_cast<PortName>(out));
        }
      }
    }

    const Digraph& graph = ctx.dep_graph().graph;
    std::vector<std::pair<PortId, PortId>> kept;
    std::uint64_t violations = 0;
    for (PortId in = 0; in < topo.port_count(); ++in) {
      if (topo.dir_of(in) != Direction::kIn || topo.name_of(in) >= kCardinal) {
        continue;
      }
      const Port port = mesh->port(in);
      const bool* row =
          prohibited[port.x & 1][static_cast<std::size_t>(opposite(port.name))];
      for (const PortId out : graph.out(in)) {
        if (topo.node_of(out) != topo.node_of(in) ||
            topo.dir_of(out) != Direction::kOut ||
            topo.name_of(out) >= kCardinal) {
          continue;
        }
        ++stats.checks;
        if (row[topo.name_of(out)] &&
            ++violations <= ctx.options.max_findings_per_code) {
          kept.emplace_back(in, out);
        }
      }
    }

    std::vector<PortId> hops;
    std::vector<Port> scratch;
    for (const auto& [in_id, out_id] : kept) {
      // The lowest destination toward which the in-port is reachable and
      // routes to the out-port; the edge is in the graph, so one exists.
      std::size_t d = 0;
      for (; d < topo.destination_count(); ++d) {
        hops.clear();
        if (ctx.routing.closure_reachable_id(in_id, d)) {
          ctx.routing.next_hop_ids_into(in_id, d, hops, scratch);
        }
        if (std::find(hops.begin(), hops.end(), out_id) != hops.end()) {
          break;
        }
      }
      GENOC_ASSERT(d < topo.destination_count(),
                   "turn edge taken toward no destination");
      const Port in = mesh->port(in_id);
      const Port out = mesh->port(out_id);
      const Port dest = mesh->port(topo.destination_id(d));
      const PortName travel = opposite(in.name);
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError,
          out.name == opposite(travel) ? "turn-reversal" : "turn-prohibited",
          std::string("prohibited ") + port_name_letter(travel) + "->" +
              port_name_letter(out.name) + " turn at " + to_string(in) +
              " routing to " + to_string(dest),
          {{"in_port", to_string(in)},
           {"out_port", to_string(out)},
           {"destination", to_string(dest)},
           {"travel", std::string(1, port_name_letter(travel))},
           {"column", std::to_string(in.x)}}));
    }
    stats.passed = violations == 0;
    if (stats.passed) {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kInfo, "turns-conform",
          "no prohibited turn among the " + std::to_string(stats.checks) +
              " turn edges of the dependency graph (" + discipline +
              " discipline)",
          {{"states", std::to_string(stats.checks)},
           {"discipline", discipline}}));
    } else {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError, "turns-violated",
          std::to_string(violations) + " prohibited turns emitted (" +
              discipline + " discipline)",
          {{"violations", std::to_string(violations)}}));
    }
    return stats;
  }
};

/// Rule 3: the node-uniformity audit. A function claiming node_uniform()
/// feeds the zero-storage closure tier, the NODE-mode sweeps and the
/// node-granular escape analysis, where a wrong claim silently corrupts
/// every downstream artifact. A NodeUniformRouting cannot make a wrong
/// claim: its hops are derived from node_out_mask, so it gets one info
/// record, uniformity-by-construction, and no audit. Every other claimant
/// (the id-native families, hand-written test functions) is audited:
/// out_mask_id() is cross-checked against the hops from EVERY in-port of
/// sampled (node, destination) pairs, for the routing and (when declared)
/// the escape lane alike, each on the full budget. The contract covers all
/// pairs, not just closure-reachable ones (the sweeps evaluate masks
/// off-route too).
///
/// The kernel compares 64-bit out-name masks. The claim is the node's
/// existing out-ports `out_mask_id(node, d) & out_exists_mask(node)`; an
/// in-port agrees iff its existing hops are exactly those ports, each once.
/// fold_id_hops folds the hops into a name mask and clears `exact` on a
/// repeated name or on an existing hop off the node's out-ports. So
/// `exact && mask == claim` holds iff the sorted hop ids equal the sorted
/// claimed out-port ids, which is what the test oracle
/// (tests/uniformity_oracle.hpp) compares. One sequential loop scans the
/// sampled destinations; the finding cap spans both audits.
class UniformityRule final : public AnalysisRule {
 public:
  const char* name() const override { return "uniformity"; }
  const char* description() const override {
    return "audit the node_uniform() claims of the routing and the escape "
           "lane that do not hold by construction: the per-node out-mask "
           "must equal the hop set from every in-port of the node (protects "
           "the zero-storage closure tier and the node-granular escape "
           "analysis)";
  }

  StageStats run(AnalyzeContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    using Claimant = std::pair<const RoutingFunction*, const char*>;
    const Claimant claimants[] = {{&ctx.routing, "routing"},
                                  {ctx.escape, "escape"}};
    bool any_claim = false;
    std::vector<Claimant> audited;
    for (const auto& [function, role] : claimants) {
      if (function == nullptr || !function->node_uniform()) {
        continue;
      }
      any_claim = true;
      if (dynamic_cast<const NodeUniformRouting*>(function) == nullptr) {
        audited.emplace_back(function, role);
        continue;
      }
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kInfo, "uniformity-by-construction",
          std::string(role) + " " + function->name() +
              " is node-uniform by construction: its hops derive from "
              "node_out_mask",
          {{"function", role}}));
    }
    if (audited.empty()) {
      stats.ran = false;
      stats.passed = true;
      if (any_claim) {
        stats.skip_reason =
            "nothing to audit: every node-uniformity claim holds by "
            "construction (NodeUniformRouting)";
      } else {
        stats.skip_reason =
            ctx.escape == nullptr
                ? "routing does not claim node-uniformity (port-mode closure)"
                : "neither routing nor escape lane claims node-uniformity "
                  "(port-mode closure)";
      }
      return stats;
    }
    stats.ran = true;
    std::uint64_t violations = 0;
    for (const auto& [function, role] : audited) {
      audit(ctx, *function, role, stats, violations);
    }
    stats.passed = violations == 0;
    if (stats.passed) {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kInfo, "uniformity-audited",
          "node-uniformity claim holds on " + std::to_string(stats.checks) +
              " sampled (in-port, destination) pairs",
          {{"pairs", std::to_string(stats.checks)}}));
    } else {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError, "uniformity-refuted",
          std::to_string(violations) +
              " (in-port, destination) pairs contradict a node_uniform() "
              "claim — the node-granular sweeps would be corrupt",
          {{"violations", std::to_string(violations)}}));
    }
    return stats;
  }

 private:
  /// Audits one function's claim on every stride-th destination, adding to
  /// \p violations (the per-code finding cap spans both functions).
  void audit(AnalyzeContext& ctx, const RoutingFunction& routing,
             const char* function, StageStats& stats,
             std::uint64_t& violations) const {
    const Topology& topo = ctx.topology;
    const std::size_t dests = topo.destination_count();
    const std::size_t nodes = topo.node_count();
    const std::size_t names = topo.name_count();
    const std::uint64_t cap = ctx.options.max_findings_per_code;
    const std::size_t stride =
        stride_for(dests, static_cast<std::uint64_t>(nodes) * names,
                   ctx.options.uniformity_budget);
    std::vector<PortId> hop_ids;
    std::vector<Port> hop_ports;
    std::uint64_t checks = 0;
    const bool id_native = routing.id_native();
    for (std::size_t d = 0; d < dests; d += stride) {
      for (std::size_t node = 0; node < nodes; ++node) {
        const std::uint64_t claim =
            routing.out_mask_id(node, d) & topo.out_exists_mask(node);
        const PortId* slots = topo.node_slots(node);
        for (std::size_t name_index = 0; name_index < names; ++name_index) {
          const PortId in =
              slots[name_index * 2 + static_cast<std::size_t>(Direction::kIn)];
          if (in == kInvalidPort) {
            continue;
          }
          const HopFold fold =
              fold_id_hops(routing, id_native, topo, in, node, d, hop_ids,
                           hop_ports);
          ++checks;
          if ((fold.exact && fold.mask == claim) || ++violations > cap) {
            continue;
          }
          const std::string in_label = topo.port_label(in);
          const std::string dest_label =
              topo.port_label(topo.destination_id(d));
          ctx.report.diagnostics.push_back(make_diagnostic(
              name(), Severity::kError, "uniformity-violated",
              std::string(function) + " hop set from " + in_label +
                  " toward " + dest_label +
                  " differs from the node's claimed out-mask",
              {{"function", function},
               {"in_port", in_label},
               {"destination", dest_label},
               {"node", topo.node_label(node)},
               {"mask_hops", std::to_string(std::popcount(claim))},
               {"in_port_hops", std::to_string(fold.hops)}}));
        }
      }
    }
    stats.checks += checks;
  }
};

/// Rule 4: routing totality and progress. Every closure-reachable
/// (port, destination) state must yield at least one next hop (a stuck
/// message is a modelling bug Theorem 1 never sees — the dependency graph
/// simply lacks the edge), and a routing claiming is_minimal() must
/// strictly decrease the wrap-aware hop distance on every emitted grid
/// hop. Destination-sampled.
class TotalityRule final : public AnalysisRule {
 public:
  const char* name() const override { return "totality"; }
  const char* description() const override {
    return "every reachable (port, destination) state yields >= 1 next "
           "hop, and minimal routings strictly decrease hop distance";
  }

  StageStats run(AnalyzeContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    stats.ran = true;
    const Topology& topo = ctx.topology;
    const RoutingFunction& routing = ctx.routing;
    const Mesh2D* mesh = routing.grid();
    const bool check_minimal = mesh != nullptr && routing.is_minimal();
    const std::size_t dests = topo.destination_count();
    const std::size_t stride =
        stride_for(dests, topo.port_count(), ctx.options.state_budget);
    const std::size_t words = routing.closure_row_words();
    ClosureRowScratch scratch;
    std::vector<PortId> hops;
    std::vector<Port> port_scratch;
    std::uint64_t dead_ends = 0;
    std::uint64_t nonminimal = 0;
    const std::uint64_t cap = ctx.options.max_findings_per_code;

    for (std::size_t d = 0; d < dests; d += stride) {
      const std::uint64_t* row = routing.closure_row(d, scratch);
      const PortId dest_id = topo.destination_id(d);
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = row[w];
        while (bits != 0) {
          const PortId pid =
              static_cast<PortId>(w * 64 + std::countr_zero(bits));
          bits &= bits - 1;
          if (pid == dest_id) {
            continue;  // arrived
          }
          hops.clear();
          routing.next_hop_ids_into(pid, d, hops, port_scratch);
          ++stats.checks;
          if (hops.empty()) {
            ++dead_ends;
            if (dead_ends <= cap) {
              ctx.report.diagnostics.push_back(make_diagnostic(
                  name(), Severity::kError, "route-dead-end",
                  "reachable state (" + topo.port_label(pid) + ", " +
                      topo.port_label(dest_id) + ") yields no next hop",
                  {{"port", topo.port_label(pid)},
                   {"destination", topo.port_label(dest_id)}}));
            }
            continue;
          }
          if (!check_minimal || topo.dir_of(pid) != Direction::kIn) {
            continue;
          }
          const Port here = mesh->port(pid);
          const Port dest = mesh->port(dest_id);
          const std::int64_t before = grid_distance(*mesh, here, dest);
          for (const PortId hop : hops) {
            if (topo.dir_of(hop) != Direction::kOut ||
                topo.node_of(hop) != topo.node_of(pid)) {
              continue;
            }
            const PortId next = topo.link_target(hop);
            if (next == kInvalidPort) {
              continue;  // terminal hop: delivery
            }
            const std::int64_t after =
                grid_distance(*mesh, mesh->port(next), dest);
            if (after >= before) {
              ++nonminimal;
              if (nonminimal <= cap) {
                ctx.report.diagnostics.push_back(make_diagnostic(
                    name(), Severity::kError, "route-nonminimal",
                    "hop " + topo.port_label(pid) + " -> " +
                        topo.port_label(hop) + " toward " +
                        topo.port_label(dest_id) +
                        " does not decrease hop distance (" +
                        std::to_string(before) + " -> " +
                        std::to_string(after) +
                        ") yet the routing claims is_minimal()",
                    {{"port", topo.port_label(pid)},
                     {"hop", topo.port_label(hop)},
                     {"destination", topo.port_label(dest_id)},
                     {"distance_before", std::to_string(before)},
                     {"distance_after", std::to_string(after)}}));
              }
            }
          }
        }
      }
    }
    stats.passed = dead_ends == 0 && nonminimal == 0;
    if (stats.passed) {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kInfo, "totality-holds",
          "all " + std::to_string(stats.checks) +
              " sampled reachable states progress" +
              (check_minimal ? " and strictly decrease hop distance" : ""),
          {{"states", std::to_string(stats.checks)},
           {"minimality_checked", check_minimal ? "true" : "false"}}));
    } else {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError, "totality-violated",
          std::to_string(dead_ends) + " dead-end and " +
              std::to_string(nonminimal) + " non-minimal states",
          {{"dead_ends", std::to_string(dead_ends)},
           {"nonminimal", std::to_string(nonminimal)}}));
    }
    return stats;
  }
};

/// Rule 5: escape-lane coverage. An `escape=` spec promises a connected,
/// deadlock-free sub-network: the escape routing's OWN dependency graph
/// must be acyclic (the Duato precondition the verify stage assumes), and
/// every node must select at least one existing escape out-port toward
/// every sampled destination (coverage/connectivity).
class EscapeCoverageRule final : public AnalysisRule {
 public:
  const char* name() const override { return "escape"; }
  const char* description() const override {
    return "escape= lanes declare a connected deadlock-free sub-network: "
           "acyclic escape dependency graph + full node coverage toward "
           "sampled destinations";
  }

  StageStats run(AnalyzeContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    if (ctx.escape == nullptr) {
      stats.ran = false;
      stats.passed = true;
      stats.skip_reason = "spec declares no escape lane";
      return stats;
    }
    stats.ran = true;
    const Topology& topo = ctx.topology;
    const RoutingFunction& escape = *ctx.escape;
    std::size_t findings = 0;

    const PortDepGraph dep = build_dep_graph_fast(escape);
    stats.checks += dep.graph.edge_count();
    const std::optional<CycleWitness> cycle = find_cycle(dep.graph);
    if (cycle.has_value()) {
      ++findings;
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError, "escape-cyclic",
          "escape lane '" + escape.name() +
              "' has a cyclic dependency graph (length " +
              std::to_string(cycle->size()) +
              ") — it is no deadlock-free sub-network",
          {{"cycle_length", std::to_string(cycle->size())},
           {"through", dep.label(cycle->front())}}));
    }

    std::uint64_t uncovered = 0;
    if (escape.node_uniform()) {
      const std::size_t dests = topo.destination_count();
      const std::size_t nodes = topo.node_count();
      const std::size_t stride =
          stride_for(dests, nodes, ctx.options.state_budget);
      for (std::size_t d = 0; d < dests; d += stride) {
        for (std::size_t node = 0; node < nodes; ++node) {
          ++stats.checks;
          const std::uint64_t mask =
              escape.out_mask_id(node, d) & topo.out_exists_mask(node);
          if (mask != 0) {
            continue;
          }
          ++uncovered;
          if (uncovered <= ctx.options.max_findings_per_code) {
            ctx.report.diagnostics.push_back(make_diagnostic(
                name(), Severity::kError, "escape-partial",
                "escape lane selects no existing out-port at node " +
                    topo.node_label(node) + " toward " +
                    topo.port_label(topo.destination_id(d)),
                {{"node", topo.node_label(node)},
                 {"destination",
                  topo.port_label(topo.destination_id(d))}}));
          }
        }
      }
      findings += uncovered != 0 ? 1 : 0;
    }

    stats.passed = findings == 0;
    if (stats.passed) {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kInfo, "escape-covered",
          "escape lane '" + escape.name() +
              "' is acyclic and covers every sampled (node, destination) "
              "pair",
          {{"escape_edges", std::to_string(dep.graph.edge_count())}}));
    } else if (uncovered != 0) {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError, "escape-uncovered",
          std::to_string(uncovered) +
              " (node, destination) pairs lack an escape out-port",
          {{"uncovered", std::to_string(uncovered)}}));
    }
    return stats;
  }
};

/// Rule 6: fault-set sanity. A spec's failed= set is the unit the fault
/// campaign enumerates over, so malformed sets deserve stable codes the
/// campaign can screen on instead of contract violations mid-sweep:
/// duplicate faults (the same physical link listed twice — the variant
/// would silently equal a smaller one), non-canonical tokens (the spec
/// names the link by its other directed endpoint, splitting the artifact
/// cache key space), and fault counts large enough that the variant is a
/// different network, not a degraded one.
class FaultSanityRule final : public AnalysisRule {
 public:
  const char* name() const override { return "fault_sanity"; }
  const char* description() const override {
    return "lint a failed= fault set: duplicate faults naming the same "
           "physical link, non-canonical link tokens, and fault counts "
           "past half the topology's links";
  }

  StageStats run(AnalyzeContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    const InstanceSpec& spec = ctx.spec;
    if (spec.failed_links.empty()) {
      stats.ran = false;
      stats.passed = true;
      stats.skip_reason = "spec declares no failed links";
      return stats;
    }
    if (!spec.is_grid()) {
      stats.ran = false;
      stats.passed = true;
      stats.skip_reason =
          "failed= is grid-only; spec_sanity carries the validation error";
      return stats;
    }
    stats.ran = true;
    std::size_t findings = 0;
    const auto emit = [&](Severity severity, std::string code,
                          std::string message,
                          std::vector<std::pair<std::string, std::string>>
                              witness) {
      if (severity != Severity::kInfo) {
        ++findings;
      }
      ctx.report.diagnostics.push_back(
          make_diagnostic(name(), severity, std::move(code),
                          std::move(message), std::move(witness)));
    };

    const bool wrap_x = spec.wrap_x();
    const bool wrap_y = spec.wrap_y();
    std::vector<std::string> canonical;
    canonical.reserve(spec.failed_links.size());
    for (const std::string& token : spec.failed_links) {
      ++stats.checks;
      std::string error;
      const std::optional<LinkFault> fault = parse_link_fault(token, &error);
      if (!fault.has_value() ||
          !link_fault_exists(*fault, spec.width, spec.height, wrap_x,
                             wrap_y)) {
        emit(Severity::kError, "sanity-fault-invalid",
             "failed link '" + token + "' " +
                 (fault.has_value() ? "does not exist in a " +
                                          std::to_string(spec.width) + "x" +
                                          std::to_string(spec.height) +
                                          " topology"
                                    : error),
             {{"token", token}});
        continue;
      }
      const LinkFault canon = canonical_link_fault(
          *fault, spec.width, spec.height, wrap_x, wrap_y);
      const std::string canon_token = link_fault_token(canon);
      if (canon_token != token) {
        emit(Severity::kWarning, "sanity-fault-noncanonical",
             "failed link '" + token + "' names its link by the "
             "non-canonical directed endpoint (canonical: '" +
                 canon_token + "') — canonicalize so equal fault sets "
                 "share one artifact key",
             {{"token", token}, {"canonical", canon_token}});
      }
      canonical.push_back(canon_token);
    }

    std::sort(canonical.begin(), canonical.end());
    std::uint64_t duplicates = 0;
    for (std::size_t i = 1; i < canonical.size(); ++i) {
      ++stats.checks;
      if (canonical[i] == canonical[i - 1]) {
        ++duplicates;
        if (duplicates <= ctx.options.max_findings_per_code) {
          emit(Severity::kError, "sanity-fault-duplicate",
               "failed link '" + canonical[i] +
                   "' is listed more than once — the variant silently "
                   "equals the deduplicated fault set",
               {{"token", canonical[i]}});
        }
      }
    }

    // Fault budget: past half the links the variant is a different network,
    // not a degraded one, and campaign statistics over it mislead.
    const std::int64_t width = spec.width;
    const std::int64_t height = spec.height;
    const std::int64_t total_links = (wrap_x ? width : width - 1) * height +
                                     (wrap_y ? height : height - 1) * width;
    ++stats.checks;
    const std::size_t distinct =
        static_cast<std::size_t>(std::unique(canonical.begin(),
                                             canonical.end()) -
                                 canonical.begin());
    if (total_links > 0 &&
        distinct > static_cast<std::size_t>(total_links) / 2) {
      emit(Severity::kWarning, "sanity-fault-count",
           std::to_string(distinct) + " distinct failed links exceed half "
           "of the topology's " + std::to_string(total_links) +
               " links — the variant is a different network, not a "
               "degraded one",
           {{"faults", std::to_string(distinct)},
            {"links", std::to_string(total_links)}});
    }

    stats.passed = findings == 0;
    if (stats.passed) {
      emit(Severity::kInfo, "sanity-fault-ok",
           "fault set is canonical and duplicate-free (" +
               std::to_string(distinct) + " distinct links)",
           {{"faults", std::to_string(distinct)}});
    }
    return stats;
  }
};

/// Rule 7: connectivity under faults. The topology seal proves every port
/// live, and so it is on a network SPLIT by failed links too: each half
/// keeps its own sources and sinks. This rule asks the campaign's
/// question instead: are all terminal nodes in one component of the
/// surviving link graph (`net-disconnected` screens the variant — the
/// deadlock question is ill-posed on a shattered network),
/// and does the routing still select an existing out-port toward every
/// destination (`route-disconnected`, a WARNING: a minimal routing
/// strands traffic at a fault but the deadlock verdict on what it does
/// route stays well-posed).
class ConnectivityRule final : public AnalysisRule {
 public:
  const char* name() const override { return "connectivity"; }
  const char* description() const override {
    return "failed links must leave all terminal nodes in one connected "
           "component (net-disconnected screens the variant); flags nodes "
           "whose routing selects no surviving out-port toward some "
           "destination (route-disconnected)";
  }

  StageStats run(AnalyzeContext& ctx) const override {
    StageStats stats;
    stats.stage = name();
    stats.ran = true;
    const Topology& topo = ctx.topology;
    const std::size_t nodes = topo.node_count();

    // An unfaulted grid is connected, so a faulted one is iff each failed
    // link's two endpoint nodes still reach each other (a base path detours
    // around every removed link). Then no node is cut off, and the full
    // BFS below would have visited every node and counted each OUT port
    // once.
    std::uint64_t disconnected = 0;
    const auto* grid = dynamic_cast<const Mesh2D*>(&topo);
    if (grid != nullptr && fault_endpoints_connected(*grid)) {
      for (std::size_t node = 0; node < nodes; ++node) {
        stats.checks += static_cast<std::uint64_t>(
            std::popcount(topo.out_exists_mask(node)));
      }
    } else {
      // The full BFS from the first terminal node, which counts every OUT
      // port it scans and lists the terminal nodes it never reaches. Links
      // are removed in pairs (both directions of a channel), so the node
      // graph is symmetric and one BFS decides mutual connectivity.
      const std::size_t names = topo.name_count();
      std::vector<char> terminal(nodes, 0);
      for (const PortId source : topo.source_ids()) {
        terminal[topo.node_of(source)] = 1;
      }
      for (const PortId dest : topo.destination_ids()) {
        terminal[topo.node_of(dest)] = 1;
      }
      std::vector<char> seen(nodes, 0);
      std::vector<std::size_t> queue;
      queue.reserve(nodes);
      for (std::size_t node = 0; node < nodes; ++node) {
        if (terminal[node]) {
          seen[node] = 1;
          queue.push_back(node);
          break;
        }
      }
      while (!queue.empty()) {
        const std::size_t node = queue.back();
        queue.pop_back();
        const PortId* slots = topo.node_slots(node);
        for (std::size_t n = 0; n < names; ++n) {
          const PortId out =
              slots[n * 2 + static_cast<std::size_t>(Direction::kOut)];
          if (out == kInvalidPort) {
            continue;
          }
          ++stats.checks;
          const PortId target = topo.link_target(out);
          if (target == kInvalidPort) {
            continue;  // terminal out-port: ejection, not a link
          }
          const std::size_t next = topo.node_of(target);
          if (!seen[next]) {
            seen[next] = 1;
            queue.push_back(next);
          }
        }
      }
      for (std::size_t node = 0; node < nodes; ++node) {
        if (!terminal[node] || seen[node]) {
          continue;
        }
        ++disconnected;
        if (disconnected <= ctx.options.max_findings_per_code) {
          ctx.report.diagnostics.push_back(make_diagnostic(
              name(), Severity::kError, "net-disconnected",
              "terminal node " + topo.node_label(node) +
                  " is cut off from the rest of the network by the failed "
                  "links",
              {{"node", topo.node_label(node)}}));
        }
      }
    }

    // Routing-level coverage: node-uniform routings expose the exact local
    // test "does node n select any surviving out-port toward d". With
    // faults present only the fault-endpoint nodes can have lost coverage
    // (masks are position-based), so those are checked exhaustively over
    // every destination; fault-free models sample destinations instead.
    std::uint64_t uncovered = 0;
    if (ctx.routing.node_uniform()) {
      const std::size_t dests = topo.destination_count();
      const Mesh2D* mesh = ctx.routing.grid();
      std::vector<std::size_t> check_nodes;
      std::size_t stride = 1;
      if (mesh != nullptr && mesh->has_faults()) {
        for (const LinkFault& fault : mesh->failed_links()) {
          const LinkFault peer =
              link_fault_peer(fault, mesh->width(), mesh->height(),
                              mesh->wraps_x(), mesh->wraps_y());
          check_nodes.push_back(static_cast<std::size_t>(fault.node));
          check_nodes.push_back(static_cast<std::size_t>(peer.node));
        }
        std::sort(check_nodes.begin(), check_nodes.end());
        check_nodes.erase(
            std::unique(check_nodes.begin(), check_nodes.end()),
            check_nodes.end());
      } else {
        check_nodes.resize(nodes);
        for (std::size_t node = 0; node < nodes; ++node) {
          check_nodes[node] = node;
        }
        stride = stride_for(dests, nodes, ctx.options.state_budget);
      }
      for (std::size_t d = 0; d < dests; d += stride) {
        const PortId dest_id = topo.destination_id(d);
        const std::size_t dest_node = topo.node_of(dest_id);
        for (const std::size_t node : check_nodes) {
          if (node == dest_node) {
            continue;
          }
          ++stats.checks;
          const std::uint64_t mask =
              ctx.routing.out_mask_id(node, d) & topo.out_exists_mask(node);
          if (mask != 0) {
            continue;
          }
          ++uncovered;
          if (uncovered <= ctx.options.max_findings_per_code) {
            ctx.report.diagnostics.push_back(make_diagnostic(
                name(), Severity::kWarning, "route-disconnected",
                "routing selects no surviving out-port at node " +
                    topo.node_label(node) + " toward " +
                    topo.port_label(dest_id) +
                    " — traffic strands at the fault (deadlock verdict "
                    "on routed traffic stays well-posed)",
                {{"node", topo.node_label(node)},
                 {"destination", topo.port_label(dest_id)}}));
          }
        }
      }
    }

    stats.passed = disconnected == 0 && uncovered == 0;
    if (stats.passed) {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kInfo, "net-connected",
          "all terminal nodes are mutually connected and the routing "
          "covers every checked (node, destination) pair",
          {{"checks", std::to_string(stats.checks)}}));
    } else if (disconnected != 0) {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kError, "connectivity-broken",
          std::to_string(disconnected) +
              " terminal nodes cut off and " + std::to_string(uncovered) +
              " uncovered (node, destination) pairs",
          {{"disconnected", std::to_string(disconnected)},
           {"uncovered", std::to_string(uncovered)}}));
    } else {
      ctx.report.diagnostics.push_back(make_diagnostic(
          name(), Severity::kWarning, "route-uncovered",
          std::to_string(uncovered) +
              " (node, destination) pairs lack a surviving out-port",
          {{"uncovered", std::to_string(uncovered)}}));
    }
    return stats;
  }

 private:
  /// True iff every failed link's endpoint nodes reach each other over the
  /// surviving links: one BFS per fault, stopped at the other endpoint, so
  /// a fault with a short detour costs a few nodes, not the whole grid.
  static bool fault_endpoints_connected(const Mesh2D& mesh) {
    if (!mesh.has_faults()) {
      return true;
    }
    std::vector<std::uint32_t> seen(mesh.node_count(), 0);
    std::vector<std::size_t> queue;
    std::uint32_t stamp = 0;
    for (const LinkFault& fault : mesh.failed_links()) {
      const auto goal = static_cast<std::size_t>(
          link_fault_peer(fault, mesh.width(), mesh.height(), mesh.wraps_x(),
                          mesh.wraps_y())
              .node);
      ++stamp;
      queue.assign(1, static_cast<std::size_t>(fault.node));
      seen[queue.front()] = stamp;
      bool reached = false;
      for (std::size_t head = 0; head < queue.size() && !reached; ++head) {
        const PortId* slots = mesh.node_slots(queue[head]);
        for (const PortName name : {PortName::kEast, PortName::kWest,
                                    PortName::kNorth, PortName::kSouth}) {
          const PortId out = slots[port_slot(name, Direction::kOut)];
          if (out == kInvalidPort) {
            continue;
          }
          const std::size_t next = mesh.node_of(mesh.link_target(out));
          reached = reached || next == goal;
          if (seen[next] != stamp) {
            seen[next] = stamp;
            queue.push_back(next);
          }
        }
      }
      if (!reached) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace

RuleRegistry::RuleRegistry() {
  // Registry order is run order for Analyzer::standard(): cheap structural
  // lints first, then the closure-walking sweeps; the fault-campaign rules
  // come last so existing --rules selections and reports keep their order.
  owned_.push_back(std::make_unique<SpecSanityRule>());
  owned_.push_back(std::make_unique<TurnConformanceRule>());
  owned_.push_back(std::make_unique<UniformityRule>());
  owned_.push_back(std::make_unique<TotalityRule>());
  owned_.push_back(std::make_unique<EscapeCoverageRule>());
  owned_.push_back(std::make_unique<FaultSanityRule>());
  owned_.push_back(std::make_unique<ConnectivityRule>());
  views_.reserve(owned_.size());
  for (const auto& rule : owned_) {
    views_.push_back(rule.get());
  }
}

const RuleRegistry& RuleRegistry::global() {
  static const RuleRegistry registry;
  return registry;
}

std::vector<std::string> RuleRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(views_.size());
  for (const AnalysisRule* rule : views_) {
    result.emplace_back(rule->name());
  }
  return result;
}

const AnalysisRule* RuleRegistry::find(const std::string& name) const {
  for (const AnalysisRule* rule : views_) {
    if (name == rule->name()) {
      return rule;
    }
  }
  return nullptr;
}

}  // namespace genoc
