/// \file yx.hpp
/// \brief YX routing: the mirror of the paper's Rxy (vertical phase first,
///        then horizontal). Also deterministic, minimal, and deadlock-free;
///        used by the routing-comparison ablation and as a second instance
///        exercising the generic proof obligations.
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class YXRouting final : public NodeUniformRouting {
 public:
  explicit YXRouting(const Mesh2D& mesh) : NodeUniformRouting(mesh) {}

  std::string name() const override { return "YX"; }
  bool is_deterministic() const override { return true; }

  /// Vertical-first mirror of XY: same node-level decision structure.
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;

  /// Closed-form s R d, the exact mirror of XYRouting::reachable (vertical
  /// ports are unconstrained in x-history, horizontal in-ports pin y).
  bool reachable(const Port& s, const Port& d) const override;

  /// Mirror of XY's next_outs table (vertical phase first): the exact
  /// over-all-dests union of out-names per in-name. Pure meshes only, for
  /// the same wrap-port reason as XYRouting.
  bool has_in_port_unions() const override {
    return topology().family() == "mesh" && !mesh().has_faults();
  }
  std::uint64_t in_port_union(std::size_t node,
                              std::size_t in_name) const override {
    return dimension_order_in_port_union(mesh(), node, in_name,
                                         /*x_first=*/false, /*wrap=*/false);
  }
};

}  // namespace genoc
