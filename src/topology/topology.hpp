/// \file topology.hpp
/// \brief The port-graph abstraction the paper's decision procedure is
///        actually defined over.
///
/// Theorem 1 and the escape-lane argument never mention meshes: they are
/// stated over an arbitrary set of ports, a routing relation and the link
/// relation between out-ports and the in-ports they drive. Topology captures
/// exactly that interface — node/port enumeration with dense PortIds, a
/// per-topology port-name table (replacing the global kPortSlotsPerNode
/// layout that hard-wired the five HERMES names), slot()-style per-node
/// lookup, link targets, and label rendering — so the sweeper, the dep-graph
/// builders, the escape analysis and the CLI can run unchanged over any
/// family. Mesh2D implements it for the mesh, ring and torus families and
/// answers its Port-tuple API from these same tables; CMeshTopology and
/// DragonflyTopology are the first non-grid clients.
///
/// Port-name tables are capped at 64 names so a routing function's per-node
/// out-port choice fits one uint64 mask (the NODE-mode sweep contract);
/// families with more radix than that still verify through the PORT-mode
/// BFS, which only needs append_next_hop_ids().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/port.hpp"
#include "util/require.hpp"

namespace genoc {

/// Dense index of an existing port within a Topology.
using PortId = std::uint32_t;

/// Sentinel for "no port": empty slot() entries and terminal link targets.
inline constexpr PortId kInvalidPort = 0xFFFFFFFFu;

/// Sentinel for "not a destination" in dest_index_of().
inline constexpr std::size_t kNotADestination = static_cast<std::size_t>(-1);

/// Parameter schema of one registered topology family, for
/// `genoc list --topologies` and spec parse errors.
struct TopologyFamilyInfo {
  const char* name;
  const char* params;
  const char* summary;
};

/// The registered families, in spec-error order.
const std::vector<TopologyFamilyInfo>& topology_families();

/// True iff \p family is one of the 2D-grid families (mesh/torus/ring) the
/// Port-tuple API, the escape lanes and the simulator are defined over.
bool is_grid_family(const std::string& family);

/// An immutable port graph. Subclass constructors describe themselves
/// through begin_topology()/add_port()/set_link()/finish_topology(); all
/// queries afterwards are flat table lookups, shared by every RouteSweeper
/// over the topology instead of being rebuilt per sweeper.
///
/// Enumeration contract: ports are added node-major (all ports of node 0,
/// then node 1, ...), and within a node in name-major, direction-minor
/// order. The sweepers and the closure rely on destination ids (terminal
/// OUT ports) being ascending in node order, which this implies.
class Topology {
 public:
  virtual ~Topology() = default;

  /// Registered family name: "mesh", "torus", "ring", "cmesh", "dragonfly".
  virtual std::string family() const = 0;

  /// Human label of a node, e.g. "3,1" (grid) or "g2r0" (dragonfly).
  virtual std::string node_label(std::size_t node) const = 0;

  /// Human label of a port. The default renders "<node_label,NAME,DIR>";
  /// Mesh2D overrides it with the paper's "<x,y,P,D>" tuple so grid labels
  /// and witnesses stay bit-identical.
  virtual std::string port_label(PortId pid) const;

  std::size_t node_count() const { return node_count_; }
  std::size_t port_count() const { return port_info_.size(); }

  /// The per-topology port-name table. names().size() <= 64.
  const std::vector<std::string>& port_names() const { return names_; }
  std::size_t name_count() const { return names_.size(); }

  /// Bitmask over name indices of the terminal (injection/ejection) names —
  /// kLocal for grids, T0..T(c-1) for concentrated families.
  std::uint64_t terminal_name_mask() const { return terminal_mask_; }

  std::size_t node_of(PortId pid) const { return port_info_[pid].node; }
  std::size_t name_of(PortId pid) const { return port_info_[pid].name; }
  Direction dir_of(PortId pid) const {
    return static_cast<Direction>(port_info_[pid].dir);
  }

  /// Slots per node in the node-major, name-major, dir-minor lookup table:
  /// name_count() x 2 (the generalization of kPortSlotsPerNode).
  std::size_t slots_per_node() const { return names_.size() * 2; }

  /// Dense id of (node, name, dir), or kInvalidPort when that port does not
  /// exist. One table lookup — the hot path of every sweep.
  PortId slot_id(std::size_t node, std::size_t name, Direction dir) const {
    return slot_ids_[node * slots_per_node() + name * 2 +
                     static_cast<std::size_t>(dir)];
  }

  /// The node's slots_per_node()-wide slice of the slot table, for sweep
  /// inner loops.
  const PortId* node_slots(std::size_t node) const {
    return slot_ids_.data() + node * slots_per_node();
  }

  /// The in-port this out-port drives (next_in of the paper), or
  /// kInvalidPort for terminal out-ports (they drain into the IP core).
  PortId link_target(PortId out) const { return link_to_[out]; }

  /// The inverse link relation: the out-port whose link drives this
  /// in-port, or kInvalidPort for terminal in-ports (fed by the IP core).
  /// Node-granular reachability queries derive "was this in-port visited"
  /// from the driving out-port's selection mask through this table.
  PortId link_source(PortId in) const { return link_from_[in]; }

  /// Per-node bitmask over name indices of the OUT ports that exist —
  /// ANDed into routing masks so boundary nodes never emit off-topology.
  std::uint64_t out_exists_mask(std::size_t node) const {
    return exist_out_[node];
  }

  /// The legal travel destinations: all terminal OUT ports, ascending by id
  /// (node-major by the enumeration contract). Their position in this list
  /// is the dest_index the routing/closure layer is keyed on.
  const std::vector<PortId>& destination_ids() const { return dest_ids_; }
  std::size_t destination_count() const { return dest_ids_.size(); }
  PortId destination_id(std::size_t dest_index) const {
    return dest_ids_[dest_index];
  }

  /// dest_index of a terminal OUT port, or kNotADestination.
  std::size_t dest_index_of(PortId pid) const {
    const PortId index = dest_index_[pid];
    return index == kInvalidPort ? kNotADestination : index;
  }

  /// The legal travel sources: all terminal IN ports, ascending by id.
  const std::vector<PortId>& source_ids() const { return source_ids_; }

 protected:
  Topology() = default;
  Topology(const Topology&) = default;
  Topology& operator=(const Topology&) = default;

  /// Starts the description: \p nodes nodes, the port-name table and the
  /// bitmask (over name indices) of the terminal names. \p ports, when
  /// known, reserves the per-port tables for that many add_port() calls.
  void begin_topology(std::size_t nodes, std::vector<std::string> names,
                      std::uint64_t terminal_mask, std::size_t ports = 0);

  /// Adds the port (node, name, dir) and returns its dense id. Ports must
  /// arrive node-major, name-major, dir-minor. Inline: a grid build calls
  /// it once per port.
  PortId add_port(std::size_t node, std::size_t name, Direction dir) {
    GENOC_REQUIRE(node < node_count_ && name < names_.size(),
                  "add_port outside the declared topology");
    const std::size_t slot =
        node * slots_per_node() + name * 2 + static_cast<std::size_t>(dir);
    // Slots ascend node-major, name-major, dir-minor, the enumeration
    // contract destination ordering (and thus dest_index stability) rests
    // on; ascending, no port is added twice.
    GENOC_REQUIRE(port_info_.empty() || slot_of(port_info_.back()) < slot,
                  "ports must be added node-major, name-major, dir-minor");
    const auto pid = static_cast<PortId>(port_info_.size());
    slot_ids_[slot] = pid;
    port_info_.push_back(PortInfo{static_cast<std::uint32_t>(node),
                                  static_cast<std::uint8_t>(name),
                                  static_cast<std::uint8_t>(dir)});
    link_to_.push_back(kInvalidPort);
    return pid;
  }

  /// The whole slot table, node-major: slot_id(node, name, dir) is entry
  /// node * slots_per_node() + name * 2 + dir. For subclasses whose slot
  /// stride is a compile-time constant (Mesh2D).
  const PortId* slot_table() const { return slot_ids_.data(); }

  /// Declares that out-port \p out drives in-port \p in. Both must be
  /// non-terminal: terminal ports face the IP core, not another port.
  /// Inline, like add_port().
  void set_link(PortId out, PortId in) {
    GENOC_REQUIRE(out < port_info_.size() && in < port_info_.size(),
                  "link endpoints must be existing ports");
    GENOC_REQUIRE(
        dir_of(out) == Direction::kOut && dir_of(in) == Direction::kIn,
        "links run from an OUT port to an IN port");
    GENOC_REQUIRE(((terminal_mask_ >> name_of(out)) & 1) == 0 &&
                      ((terminal_mask_ >> name_of(in)) & 1) == 0,
                  "links join non-terminal ports; terminal ones face the core");
    link_to_[out] = in;
  }

  /// Seals the description: derives destination/source ids, the per-node
  /// exist masks and link_source(), and validates the port graph. Every
  /// non-terminal OUT port drives an IN port; every non-terminal IN port
  /// is driven by exactly one OUT port (no IN port is the target of two
  /// links, so link_source() inverts link_target()); every node has a
  /// terminal IN and a terminal OUT port. Hence every port is live, on
  /// some injection-to-ejection path of the paper's port graph:
  ///   1. a node's terminal IN reaches all OUT ports of its node;
  ///   2. so each OUT port is reached, and through it each linked IN port;
  ///   3. backwards, every IN port reaches its node's terminal OUT, and
  ///      every non-terminal OUT port reaches its link target.
  void finish_topology();

 private:
  struct PortInfo {
    std::uint32_t node = 0;
    std::uint8_t name = 0;
    std::uint8_t dir = 0;
  };

  std::size_t slot_of(const PortInfo& info) const {
    return info.node * slots_per_node() + info.name * 2u + info.dir;
  }

  std::size_t node_count_ = 0;
  std::vector<std::string> names_;
  std::uint64_t terminal_mask_ = 0;
  std::vector<PortInfo> port_info_;       // id -> (node, name, dir)
  std::vector<PortId> slot_ids_;          // slot -> id, or kInvalidPort
  std::vector<PortId> link_to_;           // out id -> in id, or kInvalidPort
  std::vector<PortId> link_from_;         // in id -> out id, or kInvalidPort
  std::vector<std::uint64_t> exist_out_;  // node -> existing OUT name bits
  std::vector<PortId> dest_ids_;          // terminal OUT ids, ascending
  std::vector<PortId> dest_index_;        // id -> dest index, or kInvalidPort
  std::vector<PortId> source_ids_;        // terminal IN ids, ascending
};

}  // namespace genoc
