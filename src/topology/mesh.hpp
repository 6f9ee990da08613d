/// \file mesh.hpp
/// \brief The parametric HERMES 2D-mesh topology (paper Fig. 1).
///
/// Every node carries a switch with five bidirectional ports (E, W, N, S, L).
/// Edge and corner switches omit the cardinal ports that would face off-mesh
/// (a 2x2 mesh therefore has 6 ports per node rather than 10). Local ports
/// always exist: L,IN injects messages, L,OUT removes them (Fig. 1b).
///
/// Mesh2D assigns every existing port a dense PortId so dependency graphs can
/// be built over ports directly (the paper's key departure from Dally &
/// Seitz, who work at channel level).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "topology/port.hpp"
#include "topology/topology.hpp"
#include "util/require.hpp"

namespace genoc {

/// Slots per node in the (name, direction) port-lookup layout of the grid
/// families: 5 names x 2 directions, which is Topology::slots_per_node() of
/// every Mesh2D. The constant stride lets the grid Port-tuple fast path
/// (Mesh2D::slot()) index the Topology slot table without a multiply by a
/// loaded value.
inline constexpr std::size_t kPortSlotsPerNode = 10;

/// Slot of (name, dir) within a node's kPortSlotsPerNode-slot block.
inline constexpr std::size_t port_slot(PortName name, Direction dir) {
  return static_cast<std::size_t>(name) * 2 + static_cast<std::size_t>(dir);
}

/// Node coordinates within the mesh.
struct NodeCoord {
  std::int32_t x = 0;
  std::int32_t y = 0;

  friend auto operator<=>(const NodeCoord&, const NodeCoord&) = default;
};

/// One failed bidirectional link of a grid, named by a directed channel
/// endpoint: the cardinal OUT port (node, name). Removing the link removes
/// all four ports of the channel pair — (node, name, OUT/IN) and the
/// neighbour's opposite-name OUT/IN — so the link relation stays closed
/// (every surviving cardinal OUT port still has a surviving target).
/// Terminal (Local) links cannot fail.
struct LinkFault {
  std::int32_t node = 0;  ///< row-major node index
  PortName name = PortName::kEast;

  friend auto operator<=>(const LinkFault&, const LinkFault&) = default;
};

/// Parses a failed-link token "node:NAME" (NAME one of E/W/N/S, case
/// insensitive). On failure returns nullopt and stores a complaint naming
/// the token in *error (which may be null).
std::optional<LinkFault> parse_link_fault(const std::string& token,
                                          std::string* error);

/// The canonical token of \p fault: "<node>:<NAME>".
std::string link_fault_token(const LinkFault& fault);

/// True iff the fault names a link that physically exists in a
/// width x height grid with the given wraps: the node is in range and the
/// named side has a neighbour (or the dimension wraps).
bool link_fault_exists(const LinkFault& fault, std::int32_t width,
                       std::int32_t height, bool wrap_x, bool wrap_y);

/// The OTHER directed endpoint of the fault's bidirectional link — the
/// neighbour node and the opposite port name, wraps applied. Requires
/// link_fault_exists().
LinkFault link_fault_peer(const LinkFault& fault, std::int32_t width,
                          std::int32_t height, bool wrap_x, bool wrap_y);

/// The canonical representative of the fault's bidirectional link: of the
/// two directed endpoints, the one with the smaller (node, name) pair.
/// Faults that do not exist in the geometry are returned unchanged (their
/// rejection is a validation concern). Canonicalization is what lets two
/// fault sets naming the same physical links share one artifact-store key.
LinkFault canonical_link_fault(const LinkFault& fault, std::int32_t width,
                               std::int32_t height, bool wrap_x, bool wrap_y);

/// A W x H HERMES mesh, optionally wrapped into a torus in either
/// dimension. Immutable after construction.
///
/// The Topology tables are the only port table: the Port-tuple API
/// (id/try_id/exists/port) reads them, plus one coordinate per node.
///
/// With wrap enabled, boundary switches keep their outward ports and the
/// links wrap around (e.g. on a wrap-x mesh, next_in(<W-1,y,E,OUT>) =
/// <0,y,W,IN>). Wrap links create ring dependencies, which is exactly the
/// classic topology-induced deadlock Theorem 1 detects — see
/// routing/torus_xy.hpp and tests/test_torus.cpp.
class Mesh2D : public Topology {
 public:
  /// Builds a mesh with \p width columns and \p height rows, minus the
  /// \p failed_links. Requires width >= 1, height >= 1 and at least 2 nodes
  /// in total (a 1x1 "mesh" has no interconnect to specify). Wrapping a
  /// dimension requires at least 2 nodes along it. Every fault must name an
  /// existing non-terminal link; duplicate faults are idempotent.
  ///
  /// The tables are filled node by node in closed form: a node's cardinal
  /// names are its boundary/wrap mask minus the names its failed links
  /// remove, and each cardinal OUT port links to the neighbour's
  /// opposite-name IN slot, found by coordinate arithmetic. A failed link's
  /// four ports are thus missing exactly like the off-mesh boundary ports,
  /// ids stay dense in node-major order, and every downstream consumer
  /// (masks, sweeps, closures) sees the faults through the ordinary
  /// existence filter.
  Mesh2D(std::int32_t width, std::int32_t height, bool wrap_x = false,
         bool wrap_y = false, std::vector<LinkFault> failed_links = {});

  /// "torus" when y wraps, "ring" when only x wraps, else "mesh".
  std::string family() const override;

  /// "x,y" of the node in row-major order.
  std::string node_label(std::size_t node) const override;

  /// The paper's "<x,y,P,D>" tuple — identical to to_string(port(pid)), so
  /// grid dep-graph labels and witnesses are unchanged by the abstraction.
  std::string port_label(PortId pid) const override;

  std::int32_t width() const { return width_; }
  std::int32_t height() const { return height_; }
  bool wraps_x() const { return wrap_x_; }
  bool wraps_y() const { return wrap_y_; }

  /// True iff the mesh was built with failed links removed. Routings with
  /// full-grid closed forms (XY/YX reachability, the analytic in-port
  /// unions) gate on this and fall back to the semantic closure/sweeps.
  bool has_faults() const { return !failed_links_.empty(); }

  /// The failed links this mesh was built with, as given (not
  /// canonicalized, duplicates preserved).
  const std::vector<LinkFault>& failed_links() const { return failed_links_; }

  /// Topology-aware counterpart of the free next_in(): follows the link an
  /// OUT port drives, wrapping around torus dimensions. Requires
  /// exists(p) and a cardinal OUT port.
  Port next_in(const Port& p) const;

  /// True iff (x, y) is a node of the mesh.
  bool contains_node(std::int32_t x, std::int32_t y) const;

  /// True iff the port physically exists: its node is in the mesh, and a
  /// cardinal port additionally has a neighbour on that side. Local ports of
  /// in-mesh nodes always exist.
  bool exists(const Port& p) const;

  /// Dense id of an existing port. Requires exists(p).
  PortId id(const Port& p) const;

  /// Dense id of \p p, or -1 when the port does not exist. One table
  /// lookup — the hot-path fusion of exists() + id() the per-destination
  /// sweeps thread PortIds through.
  std::int32_t try_id(const Port& p) const {
    if (!contains_node(p.x, p.y)) {
      return -1;
    }
    return static_cast<std::int32_t>(slot_table()[slot(p)]);
  }

  /// The port with dense id \p pid. Requires pid < port_count(). Inline:
  /// the Port-tuple routing calls build their arguments with it.
  Port port(PortId pid) const {
    GENOC_REQUIRE(pid < port_count(), "port id out of range");
    const NodeCoord at = coords_[node_of(pid)];
    return Port{at.x, at.y, static_cast<PortName>(name_of(pid)), dir_of(pid)};
  }

  /// All node coordinates in row-major order: entry i is node i.
  const std::vector<NodeCoord>& nodes() const { return coords_; }

  /// The local in-port (injection point) of node (x, y).
  Port local_in(std::int32_t x, std::int32_t y) const;

  /// The local out-port (ejection point) of node (x, y).
  Port local_out(std::int32_t x, std::int32_t y) const;

  /// All L,OUT ports — the legal destinations of travels.
  std::vector<Port> destinations() const;

  /// All L,IN ports — the legal sources of travels.
  std::vector<Port> sources() const;

 private:
  /// Slot of p in the Topology's (node-major, name-major, dir-minor) slot
  /// table, defined for any port whose node is in the mesh. Inline: this is
  /// the innermost step of every port-id lookup on the sweep hot path.
  std::size_t slot(const Port& p) const {
    const auto node_index = static_cast<std::size_t>(p.y) *
                                static_cast<std::size_t>(width_) +
                            static_cast<std::size_t>(p.x);
    return node_index * kPortSlotsPerNode + port_slot(p.name, p.dir);
  }

  std::int32_t width_;
  std::int32_t height_;
  bool wrap_x_;
  bool wrap_y_;
  std::vector<LinkFault> failed_links_;
  std::vector<NodeCoord> coords_;  // node -> (x, y), row-major
};

/// The ids, in the unfaulted grid \p base's numbering, of the ports that
/// \p faults remove: sorted, distinct, four per distinct failed link (both
/// directed channels' OUT + IN), from four slot lookups per fault. A grid
/// built with \p faults numbers its ports as \p base does with these ids
/// skipped, which is what the fault-variant delta builder and the inherited
/// edge count rest on. Requires an unfaulted \p base and every fault to
/// name an existing non-terminal link of its shape.
std::vector<PortId> removed_base_ports(const Mesh2D& base,
                                       const std::vector<LinkFault>& faults);

}  // namespace genoc
