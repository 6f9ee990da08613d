/// \file odd_even.hpp
/// \brief Odd-Even turn-model routing (Chiu), minimal variant.
///
/// Unlike West-First/North-Last, Odd-Even prohibits no direction globally;
/// instead turn legality depends on column parity: an East->North/East->South
/// turn may only be taken in an odd column (or when one column away from the
/// destination), and a North->West/South->West turn only in an even column.
/// This distributes adaptivity more evenly across the mesh while remaining
/// deadlock-free.
///
/// Like the other adaptive functions (see fully_adaptive.hpp), it extends
/// the paper past its deterministic scope (Section IX): it returns hop
/// sets, and its dependency graph comes from the same generic enumeration.
#pragma once

#include "routing/routing.hpp"

namespace genoc {

/// NOT node-uniform: turn legality reads the in-port name (the travel
/// direction), so the fast builder uses the generic port-level sweep and
/// this is the one grid function that writes append_next_hops itself.
class OddEvenRouting final : public RoutingFunction {
 public:
  explicit OddEvenRouting(const Mesh2D& mesh) : RoutingFunction(mesh) {}

  std::string name() const override { return "Odd-Even"; }
  bool is_deterministic() const override { return false; }

  void append_next_hops(const Port& current, const Port& dest,
                        std::vector<Port>& out) const override;
};

}  // namespace genoc
