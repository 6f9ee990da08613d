/// \file wormhole.hpp
/// \brief The wormhole switching policy Swh (paper Sec. V.4, after Borrione
///        et al.).
///
/// One step processes every travel in list order (mirroring the ACL2 list
/// recursion) and, within a travel, its flits from header to tail. A flit
/// advances one hop iff its port's FIFO discipline and the next port's
/// buffer availability/single-packet ownership allow it; processing
/// header-first lets a worm pipeline — the header vacates a buffer that the
/// first body flit immediately reuses, so the whole worm advances by (at
/// most) one hop per step.
#pragma once

#include "switching/policy.hpp"

namespace genoc {

class WormholeSwitching final : public SwitchingPolicy {
 public:
  /// name(), known without constructing a policy.
  static constexpr const char* kName = "wormhole";

  std::string name() const override { return kName; }

  StepResult step(NetworkState& state) const override;

  bool can_any_move(const NetworkState& state) const override;
};

}  // namespace genoc
