#include "routing/xy.hpp"

namespace genoc {

std::uint8_t XYRouting::node_out_mask(std::int32_t x, std::int32_t y,
                                      const Port& dest) const {
  if (dest.x < x) {
    return port_name_bit(PortName::kWest);
  }
  if (dest.x > x) {
    return port_name_bit(PortName::kEast);
  }
  if (dest.y < y) {
    return port_name_bit(PortName::kNorth);
  }
  if (dest.y > y) {
    return port_name_bit(PortName::kSouth);
  }
  return port_name_bit(PortName::kLocal);
}

bool XYRouting::reachable(const Port& s, const Port& d) const {
  // The closed form assumes every route of the full grid exists; with
  // failed links routes dead-end at the fault, so ports past it are
  // claimed that no route visits. Fall back to the semantic closure
  // (the storage-free node-granular tier).
  if (mesh().has_faults()) {
    return closure_reachable(s, d);
  }
  if (!valid_endpoints(s, d)) {
    return false;
  }
  switch (s.name) {
    case PortName::kLocal:
      return s.dir == Direction::kIn ? true : s == d;
    case PortName::kWest:
      return s.dir == Direction::kIn ? d.x >= s.x : d.x <= s.x - 1;
    case PortName::kEast:
      return s.dir == Direction::kIn ? d.x <= s.x : d.x >= s.x + 1;
    case PortName::kNorth:
      // N,IN receives southbound traffic; N,OUT sends northbound (y - 1).
      return d.x == s.x &&
             (s.dir == Direction::kIn ? d.y >= s.y : d.y <= s.y - 1);
    case PortName::kSouth:
      return d.x == s.x &&
             (s.dir == Direction::kIn ? d.y <= s.y : d.y >= s.y + 1);
  }
  return false;
}

}  // namespace genoc
