#include "deadlock/depgraph.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/sweep.hpp"
#include "util/dot.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace genoc {

namespace {

/// Post-finalize edge count: deterministic at any thread count (the graph
/// is), so the counter stays comparable across 1/4/8-thread runs.
void count_built_edges(const PortDepGraph& result) {
  static obs::Counter& edges =
      obs::MetricsRegistry::global().counter("depgraph.edges_built");
  edges.add(result.graph.edge_count());
}

/// Stamps the vertex-naming references of a result graph: the topology
/// always, the grid view when the topology is one (Port-tuple consumers —
/// constraints, witness replay, flows — stay grid-only).
void bind_topology(PortDepGraph& result, const Topology& topo) {
  result.topo = &topo;
  result.mesh = dynamic_cast<const Mesh2D*>(&topo);
}

}  // namespace

std::string PortDepGraph::to_dot(const std::string& name) const {
  GENOC_REQUIRE(topo != nullptr, "uninitialized dependency graph");
  DotOptions options;
  options.graph_name = name;
  return genoc::to_dot(
      graph.vertex_count(), graph.edges(),
      [this](std::size_t v) { return label(v); }, options);
}

PortDepGraph build_dep_graph(const RoutingFunction& routing) {
  obs::TraceSpan span("build_dep_graph_generic");
  const Topology& topo = routing.topology();
  PortDepGraph result;
  bind_topology(result, topo);
  result.graph = Digraph(topo.port_count());
  std::vector<PortId> hop_ids;
  std::vector<Port> scratch;
  for (PortId p = 0; p < topo.port_count(); ++p) {
    for (std::size_t di = 0; di < topo.destination_count(); ++di) {
      // reachable_id dispatches through the virtual reachable() on grids,
      // so closed-form (and deliberately broken) overrides stay
      // authoritative — this is what makes the generic build the oracle.
      if (!routing.reachable_id(p, di)) {
        continue;
      }
      hop_ids.clear();
      // Existence of every hop for reachable inputs is a (C-1) concern;
      // the generic graph only ranges over real ports (the id layer
      // filters non-existent hops).
      routing.next_hop_ids_into(p, di, hop_ids, scratch);
      for (const PortId q : hop_ids) {
        result.graph.add_edge(p, q);
      }
    }
  }
  result.graph.finalize();
  count_built_edges(result);
  return result;
}

PortDepGraph emit_dep_graph_from_unions(const Topology& topo,
                                       const InPortUnions& in_port_union,
                                       bool terminal_in_edges) {
  const std::uint64_t terminal = topo.terminal_name_mask();
  constexpr auto kOut = static_cast<std::size_t>(Direction::kOut);
  constexpr auto kIn = static_cast<std::size_t>(Direction::kIn);
  PortDepGraph result;
  bind_topology(result, topo);
  result.graph = Digraph(topo.port_count());
  result.graph.reserve_edges(topo.port_count() * 3);
  const std::size_t spn = topo.slots_per_node();
  const PortId* slots = topo.node_slots(0);
  for (std::size_t node = 0; node < topo.node_count(); ++node, slots += spn) {
    const std::uint64_t exists = topo.out_exists_mask(node);
    // The out-ports any destination ever selects at this node: terminal
    // in-ports can hold every destination, so their unions cover the lot.
    std::uint64_t used = 0;
    std::uint64_t term = terminal;
    while (term != 0) {
      const auto tname = static_cast<unsigned>(std::countr_zero(term));
      term &= term - 1;
      if (slots[tname * 2 + kIn] != kInvalidPort) {
        used |= in_port_union(node, tname);
      }
    }
    used &= exists;
    for (std::size_t name = 0; name < topo.name_count(); ++name) {
      const PortId in = slots[name * 2 + kIn];
      if (in != kInvalidPort &&
          (terminal_in_edges || ((terminal >> name) & 1u) == 0)) {
        std::uint64_t mask = in_port_union(node, name) & exists;
        while (mask != 0) {
          const auto out_name = static_cast<unsigned>(std::countr_zero(mask));
          mask &= mask - 1;
          result.graph.add_edge(in, slots[out_name * 2 + kOut]);
        }
      }
      const PortId out = slots[name * 2 + kOut];
      if (out != kInvalidPort && ((terminal >> name) & 1u) == 0 &&
          ((used >> name) & 1u) != 0) {
        result.graph.add_edge(out, topo.link_target(out));
      }
    }
  }
  result.graph.finalize();
  return result;
}

PortDepGraph build_dep_graph_analytic(const RoutingFunction& routing) {
  obs::TraceSpan span("build_dep_graph_analytic");
  PortDepGraph result = emit_dep_graph_from_unions(
      routing.topology(),
      [&routing](std::size_t node, std::size_t in_name) {
        return routing.in_port_union(node, in_name);
      },
      /*terminal_in_edges=*/true);
  count_built_edges(result);
  return result;
}

PortDepGraph emit_dep_graph_from_out_bits(
    const Topology& topo, const std::vector<std::uint64_t>& out_bits) {
  GENOC_REQUIRE(out_bits.size() == topo.port_count(),
                "one edge-bit word per port");
  constexpr auto kOut = static_cast<std::size_t>(Direction::kOut);
  PortDepGraph result;
  bind_topology(result, topo);
  result.graph = Digraph(topo.port_count());
  // Port order, and out-ports in name order within a node: the edges come
  // out sorted, so finalize() skips its sort.
  for (PortId pid = 0; pid < topo.port_count(); ++pid) {
    std::uint64_t bits = out_bits[pid];
    if (bits == 0) {
      continue;
    }
    if (topo.dir_of(pid) == Direction::kOut) {
      result.graph.add_edge(pid, topo.link_target(pid));
      continue;
    }
    const PortId* slots = topo.node_slots(topo.node_of(pid));
    for (; bits != 0; bits &= bits - 1) {
      const auto name = static_cast<std::size_t>(std::countr_zero(bits));
      result.graph.add_edge(pid, slots[name * 2 + kOut]);
    }
  }
  result.graph.finalize();
  return result;
}

PortDepGraph build_dep_graph_fast(const RoutingFunction& routing,
                                  ThreadPool* pool) {
  if (routing.has_in_port_unions()) {
    // The analytic build is O(ports) with no per-destination work to
    // shard; running it on the calling thread beats any fan-out.
    return build_dep_graph_analytic(routing);
  }
  obs::TraceSpan span("build_dep_graph_fast");
  const Topology& topo = routing.topology();
  const std::size_t dest_count = topo.destination_count();
  // Without a pool, every destination is one shard.
  const std::size_t grain = pool != nullptr
                                ? pool->recommended_grain(dest_count)
                                : std::max<std::size_t>(dest_count, 1);
  // Per shard: one edge-bit word per port. The edges repeat across
  // destinations, so the bits saturate; shards merge by OR.
  std::vector<std::vector<std::uint64_t>> shards;
  while (shards.empty() || shards.size() * grain < dest_count) {
    shards.emplace_back(topo.port_count(), 0);
  }
  const auto sweep_shard = [&](std::size_t begin, std::size_t end) {
    obs::TraceSpan shard_span("depgraph_shard");
    if (shard_span.active()) {
      shard_span.set_detail("dests " + std::to_string(begin) + ".." +
                            std::to_string(end));
    }
    std::uint64_t* bits = shards[begin / grain].data();
    RouteSweeper sweeper(routing);
    for (std::size_t dest = begin; dest < end; ++dest) {
      sweeper.sweep(dest, bits, nullptr);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(dest_count, grain, sweep_shard);
  } else {
    sweep_shard(0, dest_count);
  }

  obs::TraceSpan merge_span("depgraph_merge");
  std::vector<std::uint64_t>& bits = shards.front();
  for (std::size_t shard = 1; shard < shards.size(); ++shard) {
    for (std::size_t pid = 0; pid < bits.size(); ++pid) {
      bits[pid] |= shards[shard][pid];
    }
  }
  PortDepGraph result = emit_dep_graph_from_out_bits(topo, bits);
  count_built_edges(result);
  return result;
}

PortDepGraph build_dep_graph_delta(
    const PortDepGraph& base, const RoutingFunction& routing,
    const std::vector<PortId>& removed_base_ports) {
  obs::TraceSpan span("build_dep_graph_delta");
  const Topology& topo = routing.topology();
  GENOC_REQUIRE(routing.node_uniform(),
                "delta dependency-graph build requires a node-uniform "
                "routing; " + routing.name() + " must rebuild from scratch");
  const std::size_t base_count = base.graph.vertex_count();
  GENOC_REQUIRE(
      topo.port_count() + removed_base_ports.size() == base_count,
      "removed-port set does not reconcile the variant against its base");
  // Monotone id translation: variant id = rank of the surviving base id.
  std::vector<PortId> to_variant(base_count);
  {
    std::size_t next_removed = 0;
    PortId next_id = 0;
    for (std::size_t v = 0; v < base_count; ++v) {
      if (next_removed < removed_base_ports.size() &&
          removed_base_ports[next_removed] == static_cast<PortId>(v)) {
        to_variant[v] = kInvalidPort;
        ++next_removed;
      } else {
        to_variant[v] = next_id++;
      }
    }
    GENOC_REQUIRE(next_removed == removed_base_ports.size(),
                  "removed base port id out of range (ids must be sorted "
                  "and deduplicated)");
  }
  PortDepGraph result;
  bind_topology(result, topo);
  result.graph = Digraph(topo.port_count());
  result.graph.reserve_edges(base.graph.edge_count());
  // The base CSR is sorted by (from, to) and the translation is monotone,
  // so the surviving edges come out pre-sorted — finalize() skips its sort.
  for (std::size_t v = 0; v < base_count; ++v) {
    const PortId from = to_variant[v];
    if (from == kInvalidPort) {
      continue;
    }
    for (const std::uint32_t w : base.graph.out(v)) {
      const PortId to = to_variant[w];
      if (to != kInvalidPort) {
        result.graph.add_edge(from, to);
      }
    }
  }
  result.graph.finalize();
  count_built_edges(result);
  return result;
}

std::vector<Port> next_outs_xy(const Mesh2D& mesh, const Port& p) {
  GENOC_REQUIRE(p.dir == Direction::kIn,
                "next_outs is defined on in-ports, got " + to_string(p));
  std::vector<Port> outs;
  auto add_if_exists = [&](PortName name) {
    const Port candidate = trans(p, name, Direction::kOut);
    if (mesh.exists(candidate)) {
      outs.push_back(candidate);
    }
  };
  // Paper Sec. V.6, verbatim case structure:
  //   next_outs(p) = { trans(p, L,OUT) }
  //                ∪ { trans(p, W,OUT) iff port(p) ∈ {E, L} }
  //                ∪ { trans(p, E,OUT) iff port(p) ∈ {W, L} }
  //                ∪ { trans(p, N,OUT) iff port(p) ≠ N }
  //                ∪ { trans(p, S,OUT) iff port(p) ≠ S }
  add_if_exists(PortName::kLocal);
  if (p.name == PortName::kEast || p.name == PortName::kLocal) {
    add_if_exists(PortName::kWest);
  }
  if (p.name == PortName::kWest || p.name == PortName::kLocal) {
    add_if_exists(PortName::kEast);
  }
  if (p.name != PortName::kNorth) {
    add_if_exists(PortName::kNorth);
  }
  if (p.name != PortName::kSouth) {
    add_if_exists(PortName::kSouth);
  }
  return outs;
}

PortDepGraph build_exy_dep(const Mesh2D& mesh) {
  PortDepGraph result;
  bind_topology(result, mesh);
  result.graph = Digraph(mesh.port_count());
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    const Port p = mesh.port(pid);
    if (p.dir == Direction::kIn) {
      for (const Port& q : next_outs_xy(mesh, p)) {
        result.graph.add_edge(pid, mesh.id(q));
      }
    } else if (p.name != PortName::kLocal) {
      // Cardinal out-ports connect to the neighbour's in-port; the port
      // exists, hence so does its neighbour.
      result.graph.add_edge(pid, mesh.id(mesh.next_in(p)));
    }
    // Local OUT ports deliver to the core: sinks of the dependency graph.
  }
  result.graph.finalize();
  return result;
}

}  // namespace genoc
