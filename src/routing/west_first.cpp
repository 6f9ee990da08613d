#include "routing/west_first.hpp"

namespace genoc {

std::uint8_t WestFirstRouting::node_out_mask(std::int32_t x, std::int32_t y,
                                             const Port& dest) const {
  // Phase 1: any pending westbound hop must be taken before anything else.
  if (dest.x < x) {
    return port_name_bit(PortName::kWest);
  }
  // Phase 2: fully adaptive among the productive non-West directions.
  std::uint8_t mask = 0;
  if (dest.x > x) {
    mask |= port_name_bit(PortName::kEast);
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
