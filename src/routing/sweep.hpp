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
/// and emit exactly the edge set of build_dep_graph(): every (p, q) with p
/// route-reachable for d, q in R(p, d) and q existing, plus the same
/// visited-port rows the reachability closure stores. One engine therefore
/// backs build_dep_graph_fast() (with or without a pool) and
/// RoutingFunction::prime(). Repeat edge emissions are suppressed by a
/// per-sweeper cache (Digraph::finalize would coalesce them anyway, this
/// keeps the merge buffers near the size of the final edge set).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "routing/routing.hpp"
#include "topology/topology.hpp"

namespace genoc {

/// First-N-distinct-targets edge filter of the port-mode dependency sweep
/// (the node-granular escape-lane analysis needs none: it records edges as
/// per-port name bits): a port emits at most a node's worth of distinct
/// out-targets (or one link target), so kSlots slots suppress virtually
/// every repeat emission across destinations; on overflow the edge is
/// simply emitted again and Digraph::finalize coalesces it.
class EdgeDedupCache {
 public:
  explicit EdgeDedupCache(std::size_t port_count)
      : slots_(port_count), counts_(port_count, 0) {}

  /// True exactly when (from, to) was not seen before (caller emits then).
  bool fresh(PortId from, PortId to) {
    auto& slots = slots_[from];
    auto& count = counts_[from];
    for (int i = 0; i < count; ++i) {
      if (slots[static_cast<std::size_t>(i)] == to) {
        return false;
      }
    }
    if (count < kSlots) {
      slots[static_cast<std::size_t>(count)] = to;
      ++count;
    }
    return true;
  }

 private:
  static constexpr int kSlots = 6;

  std::vector<std::array<PortId, kSlots>> slots_;
  std::vector<std::uint8_t> counts_;
};

class RouteSweeper {
 public:
  using Edge = std::pair<PortId, PortId>;

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
  /// edges are appended to *edges (first emission per sweeper only);
  /// visited-port bits are OR-ed into \p row (row_words() words, caller
  /// zeroed). Either sink may be nullptr.
  void sweep(std::size_t dest_index, std::vector<Edge>* edges,
             std::uint64_t* row);

 private:
  static constexpr std::uint64_t kLinkEmitted = 1;  // emitted_ bit, OUT ports

  void sweep_nodes(std::size_t dest_index, std::vector<Edge>* edges,
                   std::uint64_t* row);
  void sweep_ports(std::size_t dest_index, std::vector<Edge>* edges,
                   std::uint64_t* row);

  /// Edges from in-port \p pid to the (existing) out-ports selected at its
  /// node, deduplicated by the per-port emitted-name mask. \p slots points
  /// at the node's slots_per_node()-entry id table.
  void emit_in_edges(PortId pid, const PortId* slots, std::uint64_t mask,
                     std::vector<Edge>& edges);

  const RoutingFunction* routing_;
  const Topology* topo_;
  std::size_t port_count_ = 0;
  std::size_t node_count_ = 0;
  bool node_mode_ = false;

  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;  // per port: epoch of the current dest
  std::vector<PortId> frontier_;      // BFS worklist / marked in-ports
  std::vector<Port> hops_;            // grid Port-tuple scratch (port mode)
  std::vector<PortId> hop_ids_;       // next_hop_ids_into sink (port mode)

  std::vector<std::uint64_t> mask_;     // per node: current dest's out mask
  std::vector<std::uint64_t> emitted_;  // per port: emitted out-name bits

  // Port-mode edge filter, allocated on first port-mode sweep.
  std::unique_ptr<EdgeDedupCache> cache_;
};

}  // namespace genoc
