#include "routing/torus_xy.hpp"

#include "util/require.hpp"

namespace genoc {

TorusXYRouting::TorusXYRouting(const Mesh2D& mesh)
    : NodeUniformRouting(mesh) {
  GENOC_REQUIRE(mesh.wraps_x() || mesh.wraps_y(),
                "TorusXYRouting needs a wrapped dimension; use XYRouting on "
                "plain meshes");
}

std::int32_t TorusXYRouting::shortest_delta(std::int32_t from,
                                            std::int32_t to,
                                            std::int32_t extent, bool wrap) {
  if (!wrap) {
    return to - from;
  }
  std::int32_t forward = (to - from) % extent;
  if (forward < 0) {
    forward += extent;
  }
  // forward in [0, extent); take the shorter way, ties forward (positive).
  return forward <= extent / 2 ? forward : forward - extent;
}

std::uint8_t TorusXYRouting::node_out_mask(std::int32_t x, std::int32_t y,
                                           const Port& dest) const {
  const std::int32_t dx =
      shortest_delta(x, dest.x, mesh().width(), mesh().wraps_x());
  const std::int32_t dy =
      shortest_delta(y, dest.y, mesh().height(), mesh().wraps_y());
  if (dx < 0) {
    return port_name_bit(PortName::kWest);
  }
  if (dx > 0) {
    return port_name_bit(PortName::kEast);
  }
  if (dy < 0) {
    return port_name_bit(PortName::kNorth);
  }
  if (dy > 0) {
    return port_name_bit(PortName::kSouth);
  }
  return port_name_bit(PortName::kLocal);
}

}  // namespace genoc
