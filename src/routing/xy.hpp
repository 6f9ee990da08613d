/// \file xy.hpp
/// \brief The paper's XY routing function Rxy (Section V.3) with its
///        closed-form reachability relation.
///
/// Packets are routed first along the x-axis to the correct column, then
/// along the y-axis to the correct node (HERMES' deterministic minimal
/// policy). At port level:
///
///   Rxy(p, d) = next_in(p)      if dir(p) = OUT
///             | trans(p, W,OUT) if x(d) < x(p)
///             | trans(p, E,OUT) if x(d) > x(p)
///             | trans(p, N,OUT) if y(d) < y(p)
///             | trans(p, S,OUT) if y(d) > y(p)
///             | trans(p, L,OUT) otherwise
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class XYRouting final : public NodeUniformRouting {
 public:
  explicit XYRouting(const Mesh2D& mesh) : NodeUniformRouting(mesh) {}

  std::string name() const override { return "XY"; }
  bool is_deterministic() const override { return true; }

  /// The IN-port case of Rxy: one bit, decided from the node coordinates.
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;

  /// Closed-form s R d for XY routing: d is an existing Local OUT port and
  /// s's port class is consistent with XY history (horizontal phase first,
  /// then vertical):
  ///   - L,IN: any destination;
  ///   - L,OUT: only d == s (the message has arrived);
  ///   - W,IN (travelling east):  x(d) >= x(s);
  ///   - E,IN (travelling west):  x(d) <= x(s);
  ///   - N,IN (travelling south): x(d) = x(s) and y(d) >= y(s);
  ///   - S,IN (travelling north): x(d) = x(s) and y(d) <= y(s);
  ///   - E,OUT: x(d) >= x(s)+1;   W,OUT: x(d) <= x(s)-1;
  ///   - N,OUT: x(d) = x(s) and y(d) <= y(s)-1;
  ///   - S,OUT: x(d) = x(s) and y(d) >= y(s)+1.
  /// Cross-validated against closure_reachable() in the test suite.
  bool reachable(const Port& s, const Port& d) const override;

  /// The paper's Sec. V.6 next_outs table, i.e. the exact over-all-dests
  /// union of out-names per in-name — enables the O(ports) analytic
  /// dependency-graph build. Pure full meshes only: on wrapped grids the
  /// closed-form history claims ports (e.g. a wrap-fed W,IN at x = 0) no
  /// route semantically visits, so they stay on the per-destination sweep.
  /// On faulted meshes the full-grid table stays exact once filtered to the
  /// surviving ports (every surviving in-port's driver injects toward every
  /// destination it held before: build_dep_graph_delta's induced-subgraph
  /// argument, which tests/test_depgraph_delta.cpp pins through the
  /// emitter); faulted variants take the delta build from their base.
  bool has_in_port_unions() const override {
    return topology().family() == "mesh" && !mesh().has_faults();
  }
  std::uint64_t in_port_union(std::size_t node,
                              std::size_t in_name) const override {
    return dimension_order_in_port_union(mesh(), node, in_name,
                                         /*x_first=*/true, /*wrap=*/false);
  }
};

}  // namespace genoc
