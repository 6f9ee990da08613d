#include "routing/yx.hpp"

namespace genoc {

std::uint8_t YXRouting::node_out_mask(std::int32_t x, std::int32_t y,
                                      const Port& dest) const {
  if (dest.y < y) {
    return port_name_bit(PortName::kNorth);
  }
  if (dest.y > y) {
    return port_name_bit(PortName::kSouth);
  }
  if (dest.x < x) {
    return port_name_bit(PortName::kWest);
  }
  if (dest.x > x) {
    return port_name_bit(PortName::kEast);
  }
  return port_name_bit(PortName::kLocal);
}

bool YXRouting::reachable(const Port& s, const Port& d) const {
  // Mirror of XYRouting::reachable: the closed form is a full-grid claim,
  // so faulted meshes fall back to the semantic closure.
  if (mesh().has_faults()) {
    return closure_reachable(s, d);
  }
  if (!valid_endpoints(s, d)) {
    return false;
  }
  switch (s.name) {
    case PortName::kLocal:
      return s.dir == Direction::kIn ? true : s == d;
    case PortName::kNorth:
      // N,IN holds southbound traffic (y increases toward destination).
      return s.dir == Direction::kIn ? d.y >= s.y : d.y <= s.y - 1;
    case PortName::kSouth:
      return s.dir == Direction::kIn ? d.y <= s.y : d.y >= s.y + 1;
    case PortName::kWest:
      return d.y == s.y &&
             (s.dir == Direction::kIn ? d.x >= s.x : d.x <= s.x - 1);
    case PortName::kEast:
      return d.y == s.y &&
             (s.dir == Direction::kIn ? d.x <= s.x : d.x >= s.x + 1);
  }
  return false;
}

}  // namespace genoc
