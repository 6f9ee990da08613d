#include "deadlock/escape.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/sweep.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace genoc {

std::string EscapeAnalysis::summary() const {
  std::ostringstream os;
  os << (deadlock_free ? "deadlock-free with escape lane"
                       : "NOT proven deadlock-free")
     << ": escape available on " << states_checked << " states (";
  if (escape_always_available) {
    os << "all";
  } else {
    // Bounded on purpose: the first witness in canonical sweep order plus
    // the total count — never one entry per missing state (a broken escape
    // formula on a 64x64 torus misses tens of thousands of states).
    os << "missing at " << missing_escape;
    if (missing_states > 1) {
      os << " and " << (missing_states - 1) << " more";
    }
  }
  os << "), escape graph " << escape_graph.graph.vertex_count() << " ports / "
     << escape_graph.graph.edge_count() << " edges, "
     << (escape_graph_acyclic ? "acyclic" : "CYCLIC");
  return os.str();
}

namespace {

constexpr auto kOutSlot = static_cast<std::size_t>(Direction::kOut);
/// A (destination index, in-port) state; kNoState orders after all others.
using State = std::pair<std::size_t, PortId>;
constexpr State kNoState{std::numeric_limits<std::size_t>::max(),
                         kInvalidPort};

/// "<in-port> / <destination>" of a missing-escape state; empty for
/// kNoState.
std::string state_label(const Topology& topo, State state) {
  if (state == kNoState) {
    return {};
  }
  return topo.port_label(state.second) + " / " +
         topo.port_label(topo.destination_id(state.first));
}

/// The out-port named by the lowest set bit of \p mask in a node's slot table.
PortId lowest_out(const PortId* slots, std::uint64_t mask) {
  return slots[static_cast<std::size_t>(std::countr_zero(mask)) * 2 + kOutSlot];
}

/// Scratch + partial results of one shard of the destination-sharded escape
/// sweep. Every member is private to the shard's worker, so the sweep body
/// runs lock-free; the deterministic merge happens after the fan-in.
struct EscapeShard {
  EscapeShard(std::size_t port_count, std::size_t node_count)
      : stamp(port_count, 0), masks(node_count, 0), lane(port_count, 0) {}

  // Flat per-destination scratch: epoch stamps, an index-walked frontier,
  // and the adaptive closure rows of exactly this shard's destinations.
  ClosureRowScratch reach;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<PortId> frontier;
  std::vector<std::uint64_t> masks;  // per node: the escape out-mask
  // Per port: the lane edges seen so far, in RouteSweeper's edge encoding
  // (kLinkBit on OUT ports, out-name bits on IN ports). The lane repeats
  // across destinations, so the bits saturate; shards merge by OR.
  std::vector<std::uint64_t> lane;

  std::uint64_t states_checked = 0;
  std::uint64_t missing_states = 0;
  std::uint64_t entry_nodes = 0;
  std::uint64_t lane_ports = 0;
  // The shard's minimum missing-escape state; the minimum over shards is
  // exactly the sequential witness.
  State missing = kNoState;
};

/// Explores every escape-lane state for destination \p dest_index:
/// availability of the escape entries from the adaptive-reachable in-ports,
/// then the lane's own closure and dependency edges.
void sweep_escape_destination(const RoutingFunction& adaptive,
                              const RoutingFunction& escape,
                              const Topology& topo, std::size_t dest_index,
                              EscapeShard& shard) {
  ++shard.epoch;
  shard.frontier.clear();
  const std::uint32_t epoch = shard.epoch;
  auto seed = [&shard, epoch](PortId pid) {
    if (shard.stamp[pid] != epoch) {
      shard.stamp[pid] = epoch;
      shard.frontier.push_back(pid);
    }
  };
  auto seed_mask = [&](std::size_t node, std::uint64_t mask) {
    for (; mask != 0; mask &= mask - 1) {
      seed(lowest_out(topo.node_slots(node), mask));
    }
  };

  // Escape entries: every adaptive-reachable in-port state. A packet
  // transfers into the escape lane at the out-port the escape function
  // picks from its current (adaptive-lane) in-port; that transfer is not a
  // dependency between escape resources — the escape-lane graph contains
  // only the dependencies among escape-lane ports themselves, which is
  // what Duato's condition constrains. The escape function is node-uniform,
  // so one existence-filtered mask per node decides every in-port of the
  // node: its reachable in-ports are all available or all missing.
  const std::uint64_t* reach_row =
      adaptive.closure_row(dest_index, shard.reach);
  escape.fill_node_masks(dest_index, shard.masks.data());
  for (std::size_t node = 0; node < shard.masks.size(); ++node) {
    const std::uint64_t mask = shard.masks[node] & topo.out_exists_mask(node);
    shard.masks[node] = mask;
    std::uint64_t reachable = 0;
    PortId lowest = kInvalidPort;
    for (std::size_t name = 0; name < topo.name_count(); ++name) {
      const PortId p = topo.slot_id(node, name, Direction::kIn);
      if (p != kInvalidPort && ((reach_row[p >> 6] >> (p & 63)) & 1u) != 0) {
        lowest = std::min(lowest, p);
        ++reachable;
      }
    }
    if (reachable == 0) {
      continue;
    }
    ++shard.entry_nodes;
    shard.states_checked += reachable;
    if (mask == 0) {
      shard.missing_states += reachable;
      shard.missing = std::min(shard.missing, State{dest_index, lowest});
    }
    seed_mask(node, mask);
  }

  // Escape continuation: follow the escape function from every escape-lane
  // state until consumption — OUT ports along their link, IN ports to
  // their node's mask — recording the lane's own dependency edges.
  const std::uint64_t terminal = topo.terminal_name_mask();
  for (std::size_t head = 0; head < shard.frontier.size(); ++head) {
    const PortId pid = shard.frontier[head];
    if (topo.dir_of(pid) == Direction::kIn) {
      const std::size_t node = topo.node_of(pid);
      shard.lane[pid] |= shard.masks[node];
      seed_mask(node, shard.masks[node]);
    } else if (((terminal >> topo.name_of(pid)) & 1) != 0) {
      continue;  // consumed
    } else {
      shard.lane[pid] |= RouteSweeper::kLinkBit;
      seed(topo.link_target(pid));
    }
    ++shard.lane_ports;
  }
}

/// Acyclicity, the verdict and the state metrics: shared by both paths.
EscapeAnalysis finish(EscapeAnalysis result) {
  result.escape_graph_acyclic = is_acyclic(result.escape_graph.graph);
  result.deadlock_free =
      result.escape_always_available && result.escape_graph_acyclic;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  static obs::Counter& states = metrics.counter("escape.states_checked");
  states.add(result.states_checked);
  metrics.gauge("escape.max_states")
      .record_max(static_cast<std::int64_t>(result.states_checked));
  return result;
}

/// The dimension order of XY, YX and Torus-XY routing, else nullopt.
struct DimensionOrder {
  bool x_first = true;
  bool wrap = false;
};

std::optional<DimensionOrder> dimension_order_of(
    const RoutingFunction& routing) {
  if (dynamic_cast<const XYRouting*>(&routing) != nullptr) {
    return DimensionOrder{true, false};
  }
  if (dynamic_cast<const YXRouting*>(&routing) != nullptr) {
    return DimensionOrder{false, false};
  }
  if (dynamic_cast<const TorusXYRouting*>(&routing) != nullptr) {
    return DimensionOrder{true, true};
  }
  return std::nullopt;
}

/// What analyze_escape's analytic path needs beyond the two functions.
struct AnalyticPlan {
  bool lane_x_first = true;
  /// (node, out-name bits) of the out-ports the grid's failed links
  /// removed, in node order; empty on an unfaulted grid.
  std::vector<std::pair<std::size_t, std::uint64_t>> removed;
};

/// analyze_escape's analytic plan when its path applies to the pair, else
/// nullopt: a grid (faulted or not), XY, YX or Torus-XY adaptive routing,
/// an XY or YX lane on the same grid, and both functions only ever select
/// out-ports of the UNFAULTED grid. That check reads the coordinate-only
/// Local unions (every destination's choice at a node), which hold
/// whatever the faults removed.
std::optional<AnalyticPlan> analytic_plan(const RoutingFunction& adaptive,
                                          const RoutingFunction& escape) {
  const auto* mesh = dynamic_cast<const Mesh2D*>(&adaptive.topology());
  const std::optional<DimensionOrder> order = dimension_order_of(adaptive);
  const std::optional<DimensionOrder> lane = dimension_order_of(escape);
  if (mesh == nullptr || &escape.topology() != mesh || !order.has_value() ||
      !lane.has_value() || lane->wrap) {
    return std::nullopt;
  }
  AnalyticPlan plan{lane->x_first, {}};
  const std::size_t local = static_cast<std::size_t>(PortName::kLocal);
  for (std::size_t node = 0; node < mesh->node_count(); ++node) {
    std::uint64_t unfaulted = port_name_bit(PortName::kLocal);
    for (const PortName name : {PortName::kEast, PortName::kWest,
                                PortName::kNorth, PortName::kSouth}) {
      if (link_fault_exists(LinkFault{static_cast<std::int32_t>(node), name},
                            mesh->width(), mesh->height(), mesh->wraps_x(),
                            mesh->wraps_y())) {
        unfaulted |= port_name_bit(name);
      }
    }
    const std::uint64_t selected =
        dimension_order_in_port_union(*mesh, node, local, order->x_first,
                                      order->wrap) |
        dimension_order_in_port_union(*mesh, node, local, lane->x_first,
                                      /*wrap=*/false);
    if ((selected & ~unfaulted) != 0) {
      return std::nullopt;
    }
    if (const std::uint64_t removed =
            unfaulted & ~mesh->out_exists_mask(node)) {
      plan.removed.emplace_back(node, removed);
    }
  }
  return plan;
}

/// The closed form of the sweep for analytic_plan's pairs. Toward each
/// destination every terminal in-port holds a packet, and the
/// deterministic adaptive function takes one hop at every other node; a
/// hop that exists fills the one in-port its link feeds. Both functions
/// choose from coordinates alone, so faults only delete ports, and the
/// fault terms live at the nodes that lost an out-port: a destination
/// whose adaptive hop there was removed fills no link in-port, and one
/// whose lane hop was removed leaves every adaptive-reachable in-port of
/// the node without an escape. With no faults the terms vanish: each
/// destination reaches the terminal in-ports plus node_count - 1 link
/// in-ports, and nothing misses a lane hop.
EscapeAnalysis analyze_escape_analytic(const RoutingFunction& adaptive,
                                       const RoutingFunction& escape,
                                       const AnalyticPlan& plan) {
  obs::TraceSpan span("escape_analytic");
  static obs::Counter& builds =
      obs::MetricsRegistry::global().counter("escape.analytic_builds");
  builds.increment();
  const Mesh2D& mesh = adaptive.mesh();
  const std::size_t dest_count = mesh.destination_count();
  const std::uint64_t terminal = mesh.terminal_name_mask();
  std::uint64_t terminal_ins = 0;
  for (std::size_t node = 0; node < mesh.node_count(); ++node) {
    for (std::uint64_t t = terminal; t != 0; t &= t - 1) {
      const auto name = static_cast<std::size_t>(std::countr_zero(t));
      terminal_ins += mesh.slot_id(node, name, Direction::kIn) != kInvalidPort;
    }
  }
  EscapeAnalysis result;
  std::uint64_t dead_ends = 0;
  State missing = kNoState;
  for (const auto& [node, removed] : plan.removed) {
    for (std::size_t dest = 0; dest < dest_count; ++dest) {
      dead_ends += (adaptive.out_mask_id(node, dest) & removed) != 0;
      if ((escape.out_mask_id(node, dest) & removed) == 0) {
        continue;
      }
      for (std::size_t name = 0; name < mesh.name_count(); ++name) {
        const PortId in = mesh.slot_id(node, name, Direction::kIn);
        if (in != kInvalidPort && adaptive.closure_reachable_id(in, dest)) {
          ++result.missing_states;
          missing = std::min(missing, State{dest, in});
        }
      }
    }
  }
  result.states_checked =
      dest_count * (terminal_ins + mesh.node_count() - 1) - dead_ends;
  result.escape_always_available = result.missing_states == 0;
  result.missing_escape = state_label(mesh, missing);
  // Lane in-ports are filled only through the lane's own links, never the
  // wrap links it does not take, so its UNWRAPPED table is exact there; the
  // adaptive-lane in-ports a packet escapes from add no lane edge. A
  // surviving lane in-port holds the same destinations as on the unfaulted
  // grid (its driver is seeded from its own node's terminal in-port), so
  // the emitter's existence filter yields the unfaulted escape graph
  // induced on the surviving ports.
  result.escape_graph = emit_dep_graph_from_unions(
      mesh,
      [&mesh, &plan](std::size_t node, std::size_t in_name) {
        return dimension_order_in_port_union(mesh, node, in_name,
                                             plan.lane_x_first,
                                             /*wrap=*/false);
      },
      /*terminal_in_edges=*/false);
  return finish(std::move(result));
}

}  // namespace

EscapeAnalysis analyze_escape_sweep(const RoutingFunction& adaptive,
                                    const RoutingFunction& escape,
                                    ThreadPool* pool) {
  GENOC_REQUIRE(&adaptive.topology() == &escape.topology(),
                "adaptive and escape functions must share a topology");
  GENOC_REQUIRE(escape.is_deterministic(),
                "the escape function must be deterministic");
  const Topology& topo = adaptive.topology();
  GENOC_REQUIRE(escape.node_uniform() && topo.name_count() <= 64,
                "the escape function must be node-uniform (one out-mask per "
                "node and destination)");
  const std::size_t port_count = topo.port_count();
  const std::size_t dest_count = topo.destination_count();

  EscapeAnalysis result;

  // Sequential: one shard sweeps every destination in order.
  const std::size_t grain = pool == nullptr
                                ? std::max<std::size_t>(dest_count, 1)
                                : pool->recommended_grain(dest_count);
  std::vector<EscapeShard> shards;
  while (shards.empty() || shards.size() * grain < dest_count) {
    shards.emplace_back(port_count, topo.node_count());
  }
  auto sweep_range = [&](std::size_t begin, std::size_t end) {
    obs::TraceSpan shard_span(pool == nullptr ? "escape_sweep"
                                              : "escape_shard");
    if (shard_span.active()) {
      shard_span.set_detail("dests " + std::to_string(begin) + ".." +
                            std::to_string(end));
    }
    for (std::size_t dest = begin; dest < end; ++dest) {
      sweep_escape_destination(adaptive, escape, topo, dest,
                               shards[begin / grain]);
    }
  };
  if (pool == nullptr) {
    sweep_range(0, dest_count);
  } else {
    pool->parallel_for(dest_count, grain, sweep_range);
  }

  // Deterministic merge: counters are sums (so metric snapshots match at
  // any thread count), the witness is the minimum state, and the OR-ed lane
  // bits are emitted in port order.
  obs::TraceSpan merge_span("escape_merge");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  static obs::Counter& entries = metrics.counter("escape.entry_nodes");
  static obs::Counter& lane_ports = metrics.counter("escape.lane_ports");
  std::vector<std::uint64_t>& lane = shards.front().lane;
  State missing = kNoState;
  for (const EscapeShard& shard : shards) {
    result.states_checked += shard.states_checked;
    result.missing_states += shard.missing_states;
    entries.add(shard.entry_nodes);
    lane_ports.add(shard.lane_ports);
    missing = std::min(missing, shard.missing);
    for (std::size_t pid = 0; pid < port_count; ++pid) {
      lane[pid] |= shard.lane[pid];  // a no-op for the front shard
    }
  }
  result.escape_always_available = result.missing_states == 0;
  result.missing_escape = state_label(topo, missing);
  result.escape_graph = emit_dep_graph_from_out_bits(topo, lane);
  return finish(std::move(result));
}

EscapeAnalysis analyze_escape(const RoutingFunction& adaptive,
                              const RoutingFunction& escape,
                              ThreadPool* pool) {
  obs::TraceSpan span("escape_analysis");
  if (const std::optional<AnalyticPlan> plan =
          analytic_plan(adaptive, escape)) {
    return analyze_escape_analytic(adaptive, escape, *plan);
  }
  return analyze_escape_sweep(adaptive, escape, pool);
}

}  // namespace genoc
