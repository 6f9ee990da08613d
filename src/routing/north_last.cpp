#include "routing/north_last.hpp"

namespace genoc {

std::uint8_t NorthLastRouting::node_out_mask(std::int32_t x, std::int32_t y,
                                             const Port& dest) const {
  std::uint8_t mask = 0;
  if (dest.x > x) {
    mask |= port_name_bit(PortName::kEast);
  }
  if (dest.x < x) {
    mask |= port_name_bit(PortName::kWest);
  }
  if (dest.y > y) {
    mask |= port_name_bit(PortName::kSouth);
  }
  if (mask != 0) {
    return mask;
  }
  // Only the northbound hop remains (same column): the "last" phase.
  // Minimality guarantees we never need to leave it.
  return dest.y < y ? port_name_bit(PortName::kNorth)
                    : port_name_bit(PortName::kLocal);
}

}  // namespace genoc
