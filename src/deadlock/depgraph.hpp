/// \file depgraph.hpp
/// \brief The port dependency graph (paper Sec. IV.A and V.6).
///
/// Vertices are the ports of the interconnection network; edges are the
/// pairs of ports connected by the routing function. Theorem 1: a
/// (deterministic) routing function is deadlock-free iff this graph is
/// acyclic. The graph is built in four independent ways:
///
///  1. build_dep_graph(): the *generic* construction — enumerate every pair
///     (p, d) with p R d and add an edge (p, q) for every q in R(p, d).
///     This works for any routing function, including the adaptive
///     extensions, and serves as the oracle for the fast builders.
///  2. build_dep_graph_fast(): the *per-destination* construction
///     (routing/sweep.hpp) — one sweep per destination over the ports its
///     routes visit; bit-identical to 1. and what every driver calls.
///  3. build_dep_graph_analytic(): O(ports) from exact in-port unions
///     (XY, YX, Torus-XY); build_dep_graph_fast() dispatches there.
///  4. build_exy_dep(): the paper's *closed-form* Exy_dep for XY routing
///     (function next_outs, Sec. V.6), restricted to ports that exist.
///
/// Their pairwise equality on every mesh is the executable content of
/// constraints (C-1) and (C-2) for HERMES, and the test suite checks it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "routing/routing.hpp"
#include "topology/mesh.hpp"

namespace genoc {

class ThreadPool;

/// A dependency graph whose vertex v is the port topo->port_label(v) names.
struct PortDepGraph {
  const Topology* topo = nullptr;
  /// The topology as a grid, for the Port-tuple consumers (constraints,
  /// witness replay, flows); nullptr for non-grid families.
  const Mesh2D* mesh = nullptr;
  Digraph graph;

  /// Port tuple of vertex \p v. Grid graphs only.
  Port port_of(std::size_t v) const { return mesh->port(static_cast<PortId>(v)); }

  /// Human-readable vertex label ("<x,y,P,D>" on grids).
  std::string label(std::size_t v) const {
    return topo->port_label(static_cast<PortId>(v));
  }

  /// Graphviz rendering (reproduces the paper's Fig. 3 for a 2x2 mesh).
  std::string to_dot(const std::string& name) const;
};

/// Generic construction from the routing function and its reachability
/// relation (works for deterministic and adaptive functions alike).
/// Enumerates the full (port, destination) product — O(|ports| · |dests| ·
/// route-walk) — and therefore serves as the ORACLE the fast builder is
/// tested against; use build_dep_graph_fast() everywhere speed matters.
/// No CLI path builds it: AnalysisArtifacts::dep_graph calls it only when
/// InstanceVerifyOptions::generic_builder is set, which the tests do.
PortDepGraph build_dep_graph(const RoutingFunction& routing);

/// The per-destination construction (RouteSweeper): one sweep per
/// destination over the ports routes to it actually visit, so total work
/// is O(Σ_d |ports reaching d| · degree) instead of the full product.
///
/// Precondition: the routing's reachable() must equal the semantic
/// closure (closure_reachable) — the documented invariant every honest
/// RoutingFunction satisfies and the test suite cross-validates. The
/// sweeps enumerate exactly the closure, so a routing that deliberately
/// CLAIMS reachability beyond it (the broken-reachability mutants in
/// tests/test_mutations.cpp do, to model mis-stated invariants) must be
/// analyzed with the generic oracle, which honours the claim. Under that
/// precondition the finalized Digraph is bit-identical to
/// build_dep_graph()'s on every routing function (the test suite checks
/// all registry presets).
///
/// Second precondition: every hop fits the sweeps' edge bits — an in-port
/// hops only to out-ports of its own node, an out-port only to its link
/// target. A port-mode routing that breaks it gets a ContractViolation
/// (no registry function does); the generic oracle still builds it.
///
/// With a \p pool the sweeps are sharded over destinations, each shard
/// OR-ing its edges into its own per-port bit array; the merge ORs the
/// shards and emits once in port order, so the graph is BIT-IDENTICAL with
/// and without a pool. Each shard owns its RouteSweeper, so the routing
/// function is only entered through its stateless const interface
/// (node_out_mask / append_next_hops) and its closure is never read.
PortDepGraph build_dep_graph_fast(const RoutingFunction& routing,
                                  ThreadPool* pool = nullptr);

/// The emitter behind every sweep (build_dep_graph_fast, the escape
/// sweep): \p out_bits holds one word per port in RouteSweeper's edge
/// encoding — any bit on an out-port for the edge to its link target, the
/// out-name bits of its node's out-ports on an in-port. Edges come out in
/// port order. Finalized, edges not counted.
PortDepGraph emit_dep_graph_from_out_bits(
    const Topology& topo, const std::vector<std::uint64_t>& out_bits);

/// The O(ports) ANALYTIC construction, for routings that publish their
/// exact per-in-port out-name unions (RoutingFunction::in_port_union — the
/// generalization of the paper's next_outs table beyond XY): an in-port
/// connects to its node's union ∩ existing out-ports, a cardinal out-port
/// connects to its link target iff any destination ever selects it. No
/// per-destination sweep at all, so a 256x256 mesh builds in milliseconds
/// instead of hundreds of millions of mask evaluations. Bit-identical to
/// the generic oracle and the sweeps wherever has_in_port_unions() holds
/// (pinned per preset by the standing equality tests);
/// build_dep_graph_fast dispatches here automatically.
PortDepGraph build_dep_graph_analytic(const RoutingFunction& routing);

/// An exact out-name union source, (node, in-name) -> out-name bits, in
/// RoutingFunction::in_port_union's encoding.
using InPortUnions =
    std::function<std::uint64_t(std::size_t node, std::size_t in_name)>;

/// The emitter behind build_dep_graph_analytic, over any union source: an
/// in-port connects to \p in_port_union ∩ existing out-ports, a cardinal
/// out-port to its link target iff a terminal in-port's union selects it.
/// With \p terminal_in_edges false the edges out of terminal in-ports are
/// left out (an escape lane is entered at an out-port, never at a terminal
/// in-port — analyze_escape's analytic path). Finalized, edges not counted.
PortDepGraph emit_dep_graph_from_unions(const Topology& topo,
                                       const InPortUnions& in_port_union,
                                       bool terminal_in_edges);

/// The fault-variant DELTA construction: the dependency graph of a faulted
/// grid built by filtering its unfaulted BASE graph instead of re-sweeping.
/// \p routing is the VARIANT's routing (over the faulted topology), \p base
/// the unfaulted base context's graph over the same grid geometry, and
/// \p removed_base_ports the sorted, deduplicated base-graph ids of the
/// ports the faults removed (four per failed link: both directed channels'
/// OUT + IN).
///
/// Exact for NODE-UNIFORM routings (enforced): the per-destination sweep
/// seeds every node's terminal in-ports unconditionally, selects out-ports
/// by position-based masks intersected with existence, and emits link edges
/// only from existing cardinal out-ports — so removing a link's four ports
/// removes exactly the base edges incident to them and perturbs no other
/// emission. Variant ids are the monotone reindexing of surviving base ids
/// (the grid enumerates ports in base order, skipping removed slots), so
/// translating the base CSR in order yields a pre-sorted edge list and the
/// result is BIT-IDENTICAL to build_dep_graph_fast() on the variant (the
/// test suite checks every grid preset x every single-link fault).
PortDepGraph build_dep_graph_delta(const PortDepGraph& base,
                                   const RoutingFunction& routing,
                                   const std::vector<PortId>& removed_base_ports);

/// The paper's function next_outs(p): the set of out-ports an in-port p
/// depends on under XY routing (Sec. V.6), filtered to existing ports.
std::vector<Port> next_outs_xy(const Mesh2D& mesh, const Port& p);

/// The paper's closed-form Exy_dep: in-ports connect to next_outs_xy,
/// cardinal out-ports connect to next_in, Local OUT ports are sinks.
PortDepGraph build_exy_dep(const Mesh2D& mesh);

}  // namespace genoc
