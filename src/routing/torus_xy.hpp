/// \file torus_xy.hpp
/// \brief Dimension-order routing on a torus: XY with shortest-way wrap.
///
/// On wrapped dimensions the packet takes the shorter ring direction (ties
/// break East/South, keeping the function deterministic). This is the
/// textbook example of a TOPOLOGY-induced deadlock: even though the routing
/// is dimension-ordered, the wrap links close each ring's dependency cycle,
/// so (C-3) fails and Theorem 1's sufficiency direction yields concrete
/// wormhole deadlocks. The classic fixes are dateline virtual channels or —
/// in this library's terms — an escape lane routed by plain (non-wrapping)
/// mesh XY or YX, which analyze_escape() proves sufficient analytically on
/// every grid, fault variants included (the lane's unwrapped next_outs
/// table, filtered to the surviving ports, is its escape graph).
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class TorusXYRouting final : public NodeUniformRouting {
 public:
  /// Requires the mesh to wrap in at least one dimension (otherwise this
  /// is exactly XYRouting — use that instead).
  explicit TorusXYRouting(const Mesh2D& mesh);

  std::string name() const override { return "Torus-XY"; }
  bool is_deterministic() const override { return true; }

  /// Shortest-way dimension order decides from the node coordinates alone.
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;

  /// Exact next_outs table for the O(ports) analytic dependency-graph
  /// build. Faulted grids stay on the per-destination sweep.
  bool has_in_port_unions() const override { return !mesh().has_faults(); }
  std::uint64_t in_port_union(std::size_t node,
                              std::size_t in_name) const override {
    return dimension_order_in_port_union(mesh(), node, in_name,
                                         /*x_first=*/true, /*wrap=*/true);
  }

 private:
  /// Signed shortest displacement from \p from to \p to along a dimension
  /// of size \p extent (wrapping): result in (-extent/2, extent/2], ties
  /// toward the positive direction.
  static std::int32_t shortest_delta(std::int32_t from, std::int32_t to,
                                     std::int32_t extent, bool wrap);
};

}  // namespace genoc
