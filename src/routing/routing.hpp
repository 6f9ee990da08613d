/// \file routing.hpp
/// \brief The generic routing-function constituent R : P x P -> 2^P.
///
/// The paper defines R at the level of ports: from the current port and the
/// destination port it computes the next hop(s). Deterministic functions
/// (like the paper's Rxy) return at most one hop; adaptive functions (the
/// paper's future-work Section IX, implemented here as extensions) may return
/// several.
///
/// The relation `s R d` ("destination d is reachable from port s") is the
/// well-formedness invariant the paper calls "quite technical": it captures
/// that a message sitting at s with destination d is consistent with the
/// routing history (e.g. under XY routing a message in an East in-port is
/// travelling west, so x(d) <= x(s)). The base class provides a *semantic*
/// default — d is reachable from s iff some route generated by the routing
/// function from some source passes through s — computed as a fixpoint
/// closure. Instances may override it with a closed form; tests verify the
/// two agree.
///
/// The closure itself is TIERED (see closure_row below): node-granular and
/// storage-free for node-uniform functions, lazily built bitset rows for
/// port-mode functions; both tiers stay bit-identical to the dense layout.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "topology/mesh.hpp"
#include "topology/port.hpp"
#include "topology/topology.hpp"
#include "util/require.hpp"

namespace genoc {

class RouteSweeper;
class RoutingFunction;

/// Bit of \p name in a node_out_mask() (see below).
constexpr std::uint8_t port_name_bit(PortName name) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(name));
}

/// Per-caller scratch backing RoutingFunction::closure_row(): the
/// materialized row words (node-granular closures) plus the sweeper that
/// fills them, or that builds a stored row on its first touch. Keep one
/// per shard/thread and reuse it across destinations — repeated queries
/// for the same destination return the cached row without re-sweeping,
/// and a shard that builds many stored rows allocates one sweeper.
class ClosureRowScratch {
 public:
  ClosureRowScratch();
  ~ClosureRowScratch();
  ClosureRowScratch(const ClosureRowScratch&) = delete;
  ClosureRowScratch& operator=(const ClosureRowScratch&) = delete;
  // Movable so per-shard scratches can live in a std::vector.
  ClosureRowScratch(ClosureRowScratch&&) noexcept;
  ClosureRowScratch& operator=(ClosureRowScratch&&) noexcept;

 private:
  friend class RoutingFunction;
  std::vector<std::uint64_t> words_;
  std::unique_ptr<RouteSweeper> sweeper_;
  const RoutingFunction* sweeper_owner_ = nullptr;
  std::size_t cached_dest_ = static_cast<std::size_t>(-1);
};

/// Abstract routing function over a fixed topology. Implementations must be
/// stateless beyond the topology reference (routing in GeNoC is a pure
/// function).
///
/// Two dialects coexist behind one interface:
///  - Grid functions (the paper's Rxy and the turn models) speak the Port
///    tuple: append_next_hops()/node_out_mask()/reachable() over <x,y,P,D>.
///    The id-based entry points below adapt to them automatically.
///  - id-native functions (id_native() == true; the non-grid families)
///    speak dense PortIds and dest indices directly:
///    append_next_hop_ids()/out_mask_id(), reachability via the closure.
class RoutingFunction {
 public:
  explicit RoutingFunction(const Topology& topology)
      : topo_(&topology), grid_(dynamic_cast<const Mesh2D*>(&topology)) {}
  virtual ~RoutingFunction();

  RoutingFunction(const RoutingFunction&) = delete;
  RoutingFunction& operator=(const RoutingFunction&) = delete;

  const Topology& topology() const { return *topo_; }

  /// The topology as a 2D grid, for the Port-tuple dialect. Requires a grid
  /// family (mesh/torus/ring).
  const Mesh2D& mesh() const {
    GENOC_REQUIRE(grid_ != nullptr,
                  "the Port-tuple routing API requires a grid topology");
    return *grid_;
  }

  /// The grid, or nullptr for non-grid topologies.
  const Mesh2D* grid() const { return grid_; }

  /// Human-readable name ("XY", "West-First", ...).
  virtual std::string name() const = 0;

  /// True iff the function returns at most one hop for every reachable
  /// (port, destination) pair. The paper's deadlock condition (Theorem 1)
  /// assumes determinism; adaptive functions go through the SCC-based
  /// detector instead.
  virtual bool is_deterministic() const = 0;

  /// True iff every hop reduces the distance to the destination.
  virtual bool is_minimal() const { return true; }

  /// True iff the function is expressed directly over PortIds/dest indices
  /// (append_next_hop_ids / out_mask_id) rather than the grid Port tuple.
  /// Non-grid families must be id-native; grid functions keep the paper's
  /// tuple formulas and go through the adapters below.
  virtual bool id_native() const { return false; }

  /// The primitive grid subclasses implement: appends R(current, dest) to
  /// \p out WITHOUT clearing it. Hot loops (the port-mode sweeps, the
  /// closure build) reuse one scratch vector across calls, so the steady
  /// state allocates nothing. The appended ports
  /// follow the routing formula literally; for reachable inputs they exist
  /// in the mesh (that existence is part of what constraint (C-1) checks).
  /// id-native functions implement append_next_hop_ids() instead.
  virtual void append_next_hops(const Port& current, const Port& dest,
                                std::vector<Port>& out) const;

  /// id-native counterpart of append_next_hops: appends the dense ids of
  /// R(current, destination_id(dest_index)) — existing ports only — WITHOUT
  /// clearing \p out. Grid functions need not implement it (the tuple
  /// adapter in next_hop_ids_into covers them).
  virtual void append_next_hop_ids(PortId current, std::size_t dest_index,
                                   std::vector<PortId>& out) const;

  /// The universal id-based hop enumeration every sweep engine runs on:
  /// id-native functions answer directly, grid functions through
  /// append_next_hops + the existence filter (\p scratch is the Port-tuple
  /// scratch vector, reused across calls).
  void next_hop_ids_into(PortId current, std::size_t dest_index,
                         std::vector<PortId>& out,
                         std::vector<Port>& scratch) const;

  /// R(current, dest) as a fresh vector. Returns an empty vector when the
  /// message has arrived (current == dest, a Local OUT port). Convenience
  /// wrapper over append_next_hops() for non-hot call sites.
  std::vector<Port> next_hops(const Port& current, const Port& dest) const {
    std::vector<Port> hops;
    append_next_hops(current, dest, hops);
    return hops;
  }

  /// The node-uniformity contract of the fast dependency-graph builder:
  /// true iff (i) cardinal OUT ports always forward along their link
  /// (R(p, d) = {next_in(p)}) and Local OUT ports terminate, and (ii) the
  /// hop set from an IN port depends only on the port's NODE and the
  /// destination — not on which in-port of the node holds the message.
  /// Every function in this library except Odd-Even (whose legal turns
  /// depend on the travel direction, i.e. the in-port name) satisfies it.
  /// A wrong claim would silently corrupt the node-granular sweeps. Grid
  /// functions get the property by type from NodeUniformRouting, whose
  /// hops are derived from node_out_mask; any other claimant (the
  /// id-native families, hand-written test functions) is audited by the
  /// analyzer's `uniformity` rule.
  virtual bool node_uniform() const { return false; }

  /// For node-uniform grid functions only: the mask of out-port NAMES
  /// (port_name_bit) chosen from any in-port of node (x, y) toward
  /// \p dest; the kLocal bit means delivery (x, y are dest's node). The
  /// per-destination sweep runs one call of it per node instead of one
  /// append_next_hops per port.
  virtual std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                                     const Port& dest) const;

  /// Generalized node mask for node-uniform functions: bit i selects the
  /// out-port with name index i of the topology's port-name table (terminal
  /// bits mean delivery). The grid default adapts node_out_mask(); the name
  /// tables coincide on grids, so the masks are bit-identical. id-native
  /// node-uniform functions override this directly.
  virtual std::uint64_t out_mask_id(std::size_t node,
                                    std::size_t dest_index) const;

  /// Batched out_mask_id: fills masks[node] for every node of the topology
  /// at one destination. The grid default hoists the destination Port
  /// lookup and the node->(x, y) division out of the per-node loop (the
  /// sweeps call this once per destination, so the saving is one division
  /// and one table lookup per (node, dest) pair); id-native functions fall
  /// back to the per-node virtual. Masks are raw (not existence-filtered).
  virtual void fill_node_masks(std::size_t dest_index,
                               std::uint64_t* masks) const;

  /// True iff in_port_union() is implemented: the dependency graph of this
  /// function can then be built analytically in O(ports) with no
  /// per-destination sweep at all (build_dep_graph_analytic).
  virtual bool has_in_port_unions() const { return false; }

  /// The EXACT union over all destinations of the out-port names this
  /// function ever emits from in-port (node, in_name), before the
  /// existence filter; 0 for an in-port no route fills. It may depend on
  /// the position (dimension_order_in_port_union: XY, YX, Torus-XY). An
  /// over-approximation would add phantom dependency edges and an
  /// under-approximation drop real ones — the fast-vs-generic bit-identity
  /// tests pin correctness on every preset.
  virtual std::uint64_t in_port_union(std::size_t node,
                                      std::size_t in_name) const;

  /// The relation s R d. Default: semantic route-closure reachability.
  /// Destinations are always Local OUT ports; anything else is unreachable.
  virtual bool reachable(const Port& s, const Port& d) const {
    return closure_reachable(s, d);
  }

  /// id-based s R d used by the generic builder:
  /// grid functions dispatch through the virtual reachable() (closed-form
  /// overrides stay authoritative, exactly as the Port-tuple oracle always
  /// honored them); id-native functions read the semantic closure.
  bool reachable_id(PortId s, std::size_t dest_index) const;

  /// Semantic reachability: true iff some route of this function from some
  /// injection port passes through s on its way to d. Exposed publicly so
  /// tests can cross-validate closed-form overrides of reachable().
  bool closure_reachable(const Port& s, const Port& d) const;

  /// Id-keyed semantic reachability (row = dest_index, bit = PortId).
  bool closure_reachable_id(PortId s, std::size_t dest_index) const;

  /// The semantic visited-port row of one destination: closure_row_words()
  /// 64-bit words, bit = PortId — bit-identical to a row of the dense
  /// closure. Hot consumers (the escape sweep, the analyzer's sweeping
  /// rules) read one row per destination instead of issuing per-port
  /// reachable_id() queries. The closure is tiered by routing family:
  ///
  ///  - node-uniform functions (port-name tables of <= 64 names): nothing
  ///    is stored at all. Under uniform injection every node holds a
  ///    message for every destination, so membership is a closed form over
  ///    out_mask_id(): a terminal IN port is always visited; an OUT port is
  ///    visited iff its name bit is in its node's mask; a cardinal IN port
  ///    is visited iff the out-port driving it (Topology::link_source) is
  ///    selected at ITS node. Rows are swept into \p scratch on demand, by
  ///    the shard that consumes them, and freed with it.
  ///  - port-mode functions (e.g. Odd-Even, whose turns depend on the
  ///    in-port name): per-destination bitset rows, built on first touch
  ///    with \p scratch's sweeper and published by compare-and-swap into a
  ///    shared read-only store. A sorted port-id list would not be smaller:
  ///    every row visits each terminal IN port, and terminals are over 1/32
  ///    of the ports in every family, so 4 bytes per visited port exceed 8
  ///    per 64-port word.
  ///
  /// Both tiers equal one port-mode RouteSweeper sweep per destination;
  /// test_closure_compressed builds that dense oracle itself and pins the
  /// identity per preset, and under concurrent first touch at 1/4/8
  /// threads. The returned pointer stays valid until the next closure_row()
  /// call on the same scratch. Thread-safe: concurrent callers with
  /// distinct scratches may touch any destination in any order.
  const std::uint64_t* closure_row(std::size_t dest_index,
                                   ClosureRowScratch& scratch) const;

  /// 64-bit words per closure row (one bit per existing port).
  std::size_t closure_row_words() const {
    return (topo_->port_count() + 63) / 64;
  }

  /// Bytes of closure storage currently allocated by this function (0 for
  /// the node-granular tier — membership is a closed form). The
  /// `closure.bytes` gauge reports its high-water mark.
  std::uint64_t closure_bytes() const;

  /// Closure rows materialized so far (lazy builds + scratch sweeps), also
  /// counted by the `closure.rows_built` counter.
  std::uint64_t closure_rows_built() const {
    return rows_built_.load(std::memory_order_relaxed);
  }

 protected:
  /// Shared guard: d must be an existing Local OUT port and s must exist.
  /// Grid functions only.
  bool valid_endpoints(const Port& s, const Port& d) const;

 private:
  /// One lazily built compressed closure row: the bitset row words.
  struct CompressedRow {
    std::vector<std::uint64_t> words;
    std::uint64_t bytes() const {
      return words.capacity() * sizeof(std::uint64_t) + sizeof(CompressedRow);
    }
  };

  /// True for the node-granular, storage-free closure tier.
  bool node_tier() const {
    return node_uniform() && topo_->name_count() <= 64;
  }
  bool node_mask_reachable(PortId s, std::size_t dest_index) const;
  /// \p scratch's sweeper, (re)bound to this function.
  RouteSweeper& scratch_sweeper(ClosureRowScratch& scratch) const;
  /// The row for \p dest_index, built on first touch with \p scratch's
  /// sweeper (a sweeper of its own without one) and published by
  /// lock-free compare-and-swap; the losing builder frees its copy.
  const CompressedRow* compressed_row(std::size_t dest_index,
                                      ClosureRowScratch* scratch) const;
  void ensure_rows_allocated() const;
  void note_row_built(std::uint64_t bytes_delta) const;

  const Topology* topo_;
  const Mesh2D* grid_;  ///< topo_ as a grid, or nullptr

  // Compressed tier: one atomic slot per destination, null until built.
  mutable std::once_flag rows_once_;
  mutable std::unique_ptr<std::atomic<CompressedRow*>[]> rows_;

  mutable std::atomic<std::uint64_t> rows_built_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
};

/// A grid routing function that is node-uniform by construction: the one
/// formula a subclass writes is node_out_mask(), and every hop derives from
/// it. This is the shape of the paper's port-level Rxy (Sec. V.3), whose
/// IN-port case reads the node and the destination, never the in-port name:
///  - a cardinal OUT port forwards along its link to next_in(p);
///  - a Local OUT port terminates (the message is delivered);
///  - an IN port at (x, y) gets trans(p, name, OUT) for each name bit of
///    node_out_mask(x, y, dest), in ascending PortName order (E, W, N, S,
///    L). The simulator picks among the hops by index, so the order is
///    part of the contract.
/// Every reader of the claim (the sweeps, the closure tier, escape
/// analysis) goes through node_out_mask, so there are no two copies to
/// disagree and the analyzer does not audit these functions.
class NodeUniformRouting : public RoutingFunction {
 public:
  explicit NodeUniformRouting(const Mesh2D& mesh) : RoutingFunction(mesh) {}

  void append_next_hops(const Port& current, const Port& dest,
                        std::vector<Port>& out) const final;

  bool node_uniform() const final { return true; }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override = 0;
  std::uint64_t out_mask_id(std::size_t node,
                            std::size_t dest_index) const final {
    return RoutingFunction::out_mask_id(node, dest_index);
  }
  void fill_node_masks(std::size_t dest_index,
                       std::uint64_t* masks) const final {
    RoutingFunction::fill_node_masks(dest_index, masks);
  }
};

/// Destinations per out-name mask at one node of a node-uniform grid
/// routing: entry m counts the destinations off the node toward which
/// out_mask_id() selects exactly the names m (grid masks span the five names
/// E, W, N, S, L, hence 32 entries). Out masks read positions only, so one
/// table serves every fault variant of the grid: the destinations a variant
/// leaves without a surviving out-port at the node are the entries whose
/// mask misses every surviving name.
using OutMaskHistogram = std::array<std::uint32_t, 32>;

/// The OutMaskHistogram of every node of one node-uniform grid routing,
/// each counted on first touch (one out_mask_id() per destination) and
/// published by compare-and-swap, as stored closure rows are. Thread-safe:
/// concurrent callers may touch any node in any order.
class OutMaskHistograms {
 public:
  explicit OutMaskHistograms(const RoutingFunction& routing);
  ~OutMaskHistograms();
  OutMaskHistograms(const OutMaskHistograms&) = delete;
  OutMaskHistograms& operator=(const OutMaskHistograms&) = delete;

  /// The histogram of \p node. Requires a node-uniform grid routing.
  const OutMaskHistogram& at(std::size_t node) const;

 private:
  const RoutingFunction* routing_;
  mutable std::once_flag slots_once_;
  mutable std::unique_ptr<std::atomic<OutMaskHistogram*>[]> slots_;
};

/// The exact in_port_union of dimension-order routing on \p mesh, x first
/// (XY, Torus-XY) or y first (YX). With \p wrap, wrapped dimensions go the
/// shorter way round, ties positive, so the table depends on their extent;
/// on unwrapped dimensions it depends on the node's coordinate.
std::uint64_t dimension_order_in_port_union(const Mesh2D& mesh,
                                            std::size_t node,
                                            std::size_t in_name, bool x_first,
                                            bool wrap);

}  // namespace genoc
