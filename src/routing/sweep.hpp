/// \file sweep.hpp
/// \brief RouteSweeper: per-destination enumeration of the routing relation.
///
/// The generic dependency-graph construction enumerates the full
/// (port, destination) product and re-walks routes per pair — quadratic per
/// port and the ROADMAP's scaling bottleneck. The sweeper replaces it with
/// one pass per destination d over the ports that routes to d actually
/// visit, so total work is O(Σ_d |ports reaching d| · degree). Two modes:
///
///  - NODE mode (RoutingFunction::node_uniform(), port-name tables of <= 64
///    names): one out_mask_id() call per (node, dest) decides the out-ports
///    for every in-port of the node at once; link targets mark the in-ports
///    the route tree visits. O(nodes) per destination with a handful of ns
///    per node.
///  - PORT mode (the universal fallback, e.g. Odd-Even whose turns depend
///    on the in-port name, or any hierarchical routing that opts out of
///    node uniformity): a BFS from the terminal IN seeds following
///    next_hop_ids_into, identical to the semantic closure fixpoint.
///
/// Both modes are topology-agnostic — they read the Topology's shared slot,
/// link and existence tables instead of rebuilding grid tables per sweeper —
/// and record exactly the edge set of build_dep_graph(): every (p, q) with p
/// route-reachable for d, q in R(p, d) and q existing, plus the same
/// visited-port rows the reachability closure stores. Edges are recorded as
/// per-port out-name bits, which repeat across destinations and merge across
/// shards by OR; emit_dep_graph_from_out_bits() (deadlock/depgraph.hpp)
/// turns them into the graph. One engine therefore backs
/// build_dep_graph_fast() (with or without a pool) and the closure rows
/// (RoutingFunction::closure_row(), built lazily per destination).
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routing.hpp"
#include "topology/topology.hpp"

namespace genoc {

class RouteSweeper {
 public:
  /// The edge bit of an OUT port: the dependency on its link target. An IN
  /// port's edge bits are the out-name bits of its node's out-ports.
  static constexpr std::uint64_t kLinkBit = 1;

  explicit RouteSweeper(const RoutingFunction& routing);

  /// True when the node-uniform sweep is active.
  bool node_mode() const { return node_mode_; }

  /// Forces the generic port-level BFS even for node-uniform functions;
  /// tests cross-validate both paths against the oracle on every preset.
  void force_port_mode() { node_mode_ = false; }

  /// 64-bit words per closure row (one bit per existing port).
  std::size_t row_words() const { return (port_count_ + 63) / 64; }

  /// Sweeps destination \p dest_index (position in the topology's
  /// destination_ids(); the row-major node index on grids). Dependency
  /// edges are OR-ed into \p edge_bits (one word per port, kLinkBit on OUT
  /// ports, out-name bits on IN ports); visited-port bits are OR-ed into
  /// \p row (row_words() words, caller zeroed). Either sink may be nullptr.
  ///
  /// Port mode throws ContractViolation on a hop the edge bits cannot
  /// hold: an IN port's hop off its own node's out-ports, or an OUT port's
  /// hop other than its link target. No registry function emits one.
  void sweep(std::size_t dest_index, std::uint64_t* edge_bits,
             std::uint64_t* row);

 private:
  void sweep_nodes(std::size_t dest_index, std::uint64_t* edge_bits,
                   std::uint64_t* row);
  void sweep_ports(std::size_t dest_index, std::uint64_t* edge_bits,
                   std::uint64_t* row);

  /// The edge bits of \p pid's hops in hop_ids_ (port mode).
  std::uint64_t hop_edge_bits(PortId pid) const;

  const RoutingFunction* routing_;
  const Topology* topo_;
  std::size_t port_count_ = 0;
  std::size_t node_count_ = 0;
  bool node_mode_ = false;

  // Port mode: the BFS over (port, destination) states.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;  // per port: epoch of the current dest
  std::vector<PortId> frontier_;      // BFS worklist
  std::vector<Port> hops_;            // grid Port-tuple scratch
  std::vector<PortId> hop_ids_;       // next_hop_ids_into sink

  std::vector<std::uint64_t> mask_;  // node mode: per node, the dest's mask
};

}  // namespace genoc
