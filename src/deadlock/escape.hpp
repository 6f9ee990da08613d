/// \file escape.hpp
/// \brief Escape-channel (Duato-style) deadlock-freedom analysis — the
///        paper's Sec. IX future-work direction, executed at graph level.
///
/// The paper restricts Theorem 1 to deterministic routing and cites Duato
/// [19] for adaptive routing. Duato's classic recipe: give every port an
/// extra *escape* virtual lane routed by a deterministic deadlock-free
/// function; a packet blocked in the adaptive lanes can always fall back to
/// the escape lane. Deadlock-freedom then requires only that
///
///   (1) an escape hop is AVAILABLE from every state the adaptive function
///       can reach (every adaptive-reachable (in-port, destination) pair
///       has an escape next hop that exists in the mesh), and
///   (2) the escape lane's own dependency graph — the closure of the escape
///       function over all states reachable once a packet has escaped — is
///       ACYCLIC.
///
/// This module builds that escape closure and checks both conditions. The
/// decisive subtlety is that the escape function is applied from states the
/// escape function itself would never create (e.g. a packet that travelled
/// South under fully-adaptive routing and now needs to go East sits in a
/// North IN port — an XY-impossible state): availability and acyclicity
/// must therefore be evaluated over the ADAPTIVE reachability relation, not
/// the escape function's own.
///
/// Two paths compute the same analysis. The node-mode SWEEP
/// (analyze_escape_sweep) walks the adaptive closure once per destination
/// and works for any pair. The ANALYTIC path is O(ports + faults x dests)
/// and is taken when the grid is a Mesh2D (wrapped or not, faulted or
/// not), the adaptive function is XY, YX or Torus-XY and the lane is XY or
/// YX. There, toward each destination, every terminal in-port holds a
/// packet and the adaptive function takes one hop from every other node,
/// which fills one link in-port unless a failed link removed it; the lane
/// has a hop wherever no failed link removed it, and only the
/// adaptive-reachable in-ports of those nodes miss one. Both functions
/// choose from coordinates alone, so faults only delete ports and these
/// terms vanish on an unfaulted grid. Lane in-ports fill only through the
/// lane's own links, never through a wrap link, so the lane's UNWRAPPED
/// next_outs table (without the terminal in-ports, where no packet enters
/// the lane), filtered to the surviving ports, is exactly the escape graph.
/// The analytic graph still gets the acyclicity check. The tests pin both
/// paths against each other and against a per-state oracle.
///
/// Metrics: escape.states_checked and the escape.max_states gauge count on
/// both paths; escape.analytic_builds counts analytic runs; escape.entry_nodes
/// and escape.lane_ports count sweep work only (0 on the analytic path).
#pragma once

#include <cstdint>
#include <string>

#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"
#include "routing/routing.hpp"

namespace genoc {

class ThreadPool;

/// Outcome of the escape analysis.
struct EscapeAnalysis {
  /// (1): every adaptive-reachable in-port state has an escape hop.
  bool escape_always_available = false;
  /// Number of (in-port, destination) states checked for availability.
  std::uint64_t states_checked = 0;
  /// Number of states WITHOUT an escape hop (0 when (1) holds).
  std::uint64_t missing_states = 0;
  /// The FIRST state without an escape hop in canonical (destination-major,
  /// in-port-minor) order, if any ("<port> / <dest>"), at any shard count.
  std::string missing_escape;
  /// (2): the escape-lane dependency graph (over the escape closure).
  PortDepGraph escape_graph;
  bool escape_graph_acyclic = false;
  /// Verdict: (1) and (2) — the network is deadlock-free with one escape
  /// lane per port, regardless of cycles in the adaptive lanes.
  bool deadlock_free = false;

  /// One bounded line: the verdict, the state counts, the first missing
  /// witness (if any; never the full list) and the graph shape.
  std::string summary() const;
};

/// The analysis: \p adaptive is the (possibly cyclic) routing function
/// packets normally use; \p escape is a deterministic function like the
/// paper's Rxy, on the same topology. \p escape must also be node-uniform
/// (name tables of <= 64 names; the registry's xy/yx lanes are): availability
/// is NODE-granular — one existence-filtered out-mask per (node,
/// destination) decides every adaptive-reachable in-port of the node, and
/// the lane walk reads the same masks. The analysis trusts that mask: xy/yx
/// hold it by construction (NodeUniformRouting), and the analyzer's
/// `uniformity` rule audits any other claimant.
///
/// Takes the analytic path where it applies (see the file comment) and
/// falls back to analyze_escape_sweep() otherwise; the results are equal.
EscapeAnalysis analyze_escape(const RoutingFunction& adaptive,
                              const RoutingFunction& escape,
                              ThreadPool* pool = nullptr);

/// The node-mode sweep analyze_escape() falls back to, for every pair.
/// With a \p pool the destinations are sharded across its threads. Each
/// shard records the lane's edges as per-port out-name bits; the merge ORs
/// them and emits the escape graph once, so the result is BIT-IDENTICAL to
/// pool == nullptr (one shard) at every thread count.
EscapeAnalysis analyze_escape_sweep(const RoutingFunction& adaptive,
                                    const RoutingFunction& escape,
                                    ThreadPool* pool = nullptr);

}  // namespace genoc
