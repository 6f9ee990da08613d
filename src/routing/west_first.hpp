/// \file west_first.hpp
/// \brief West-First turn-model routing (Glass & Ni), minimal variant.
///
/// All westbound hops happen first (deterministically); once the message is
/// at or east of its destination column it routes fully adaptively among the
/// remaining productive directions. The prohibited turns are exactly the two
/// turns into West, which breaks all dependency cycles — the port dependency
/// graph stays acyclic, as the test suite verifies.
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class WestFirstRouting final : public NodeUniformRouting {
 public:
  explicit WestFirstRouting(const Mesh2D& mesh) : NodeUniformRouting(mesh) {}

  std::string name() const override { return "West-First"; }
  bool is_deterministic() const override { return false; }

  /// The west-first phases read only the node coordinates.
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;
};

}  // namespace genoc
