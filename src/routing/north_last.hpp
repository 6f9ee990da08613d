/// \file north_last.hpp
/// \brief North-Last turn-model routing (Glass & Ni), minimal variant.
///
/// With the paper's coordinate convention (North decreases y), a message may
/// move North only once no other productive direction remains; after the
/// first northbound hop the column is already correct, so it continues North
/// to the destination. The prohibited turns are the two turns out of North.
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class NorthLastRouting final : public NodeUniformRouting {
 public:
  explicit NorthLastRouting(const Mesh2D& mesh) : NodeUniformRouting(mesh) {}

  std::string name() const override { return "North-Last"; }
  bool is_deterministic() const override { return false; }

  /// Choice depends only on the node coordinates.
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;
};

}  // namespace genoc
