#include "routing/fully_adaptive.hpp"

namespace genoc {

std::uint8_t FullyAdaptiveRouting::node_out_mask(std::int32_t x,
                                                 std::int32_t y,
                                                 const Port& dest) const {
  std::uint8_t mask = 0;
  if (dest.x > x) {
    mask |= port_name_bit(PortName::kEast);
  }
  if (dest.x < x) {
    mask |= port_name_bit(PortName::kWest);
  }
  if (dest.y < y) {
    mask |= port_name_bit(PortName::kNorth);
  }
  if (dest.y > y) {
    mask |= port_name_bit(PortName::kSouth);
  }
  return mask != 0 ? mask : port_name_bit(PortName::kLocal);
}

}  // namespace genoc
