/// \file negative_first.hpp
/// \brief Negative-First turn-model routing (Glass & Ni), minimal variant.
///
/// All hops in the negative directions (West = -x and, in the paper's
/// convention, North = -y) are taken first, adaptively interleaved; then the
/// non-negative directions (East, South) are taken, again adaptively. The
/// prohibited turns are the two from a non-negative into a negative
/// direction.
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class NegativeFirstRouting final : public NodeUniformRouting {
 public:
  explicit NegativeFirstRouting(const Mesh2D& mesh)
      : NodeUniformRouting(mesh) {}

  std::string name() const override { return "Negative-First"; }
  bool is_deterministic() const override { return false; }

  /// Choice depends only on the node coordinates.
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;
};

}  // namespace genoc
