/// \file store_forward.hpp
/// \brief Store-and-forward switching baseline.
///
/// The whole packet is buffered at each port before moving on: a hop may
/// begin only when the next port can hold ALL of the packet's flits, and a
/// link transmits one flit per step, so each hop costs flit_count steps —
/// no pipelining across hops. Included as the classical comparison point
/// for the wormhole policy (the paper's Sec. II motivates wormhole as
/// HERMES' choice); it requires flit_count <= buffer capacity along the
/// route to make progress at all.
#pragma once

#include "switching/policy.hpp"

namespace genoc {

class StoreForwardSwitching final : public SwitchingPolicy {
 public:
  /// name(), known without constructing a policy.
  static constexpr const char* kName = "store-and-forward";

  std::string name() const override { return kName; }

  StepResult step(NetworkState& state) const override;

  bool can_any_move(const NetworkState& state) const override;

 private:
  /// A packet can move a flit iff a transfer to the next port is already in
  /// progress, or all its undelivered flits sit together and the next route
  /// port has room for the entire packet (or is the destination Local OUT).
  bool packet_can_advance(const NetworkState& state, TravelId id) const;
};

}  // namespace genoc
