#include "routing/negative_first.hpp"

namespace genoc {

std::uint8_t NegativeFirstRouting::node_out_mask(std::int32_t x,
                                                 std::int32_t y,
                                                 const Port& dest) const {
  std::uint8_t negative = 0;
  if (dest.x < x) {
    negative |= port_name_bit(PortName::kWest);
  }
  if (dest.y < y) {
    negative |= port_name_bit(PortName::kNorth);
  }
  if (negative != 0) {
    return negative;
  }
  std::uint8_t positive = 0;
  if (dest.x > x) {
    positive |= port_name_bit(PortName::kEast);
  }
  if (dest.y > y) {
    positive |= port_name_bit(PortName::kSouth);
  }
  return positive != 0 ? positive : port_name_bit(PortName::kLocal);
}

}  // namespace genoc
