#include "grid_oracle.hpp"

#include <map>
#include <set>
#include <utility>

namespace genoc {

namespace {

/// A cardinal port exists iff the neighbour it would connect to is inside
/// the grid or the dimension wraps; Local ports always exist.
bool port_physically_exists(const Port& p, std::int32_t width,
                            std::int32_t height, bool wrap_x, bool wrap_y) {
  switch (p.name) {
    case PortName::kEast:
      return wrap_x || p.x + 1 < width;
    case PortName::kWest:
      return wrap_x || p.x > 0;
    case PortName::kNorth:
      return wrap_y || p.y > 0;  // North decreases y
    case PortName::kSouth:
      return wrap_y || p.y + 1 < height;
    case PortName::kLocal:
      return true;
  }
  return false;
}

/// next_in(p) with the wrapped dimensions folded back into the grid.
Port wrapped_next_in(const Port& p, std::int32_t width, std::int32_t height) {
  Port q = next_in(p);
  q.x = (q.x + width) % width;
  q.y = (q.y + height) % height;
  return q;
}

}  // namespace

OracleGrid::OracleGrid(std::int32_t width, std::int32_t height, bool wrap_x,
                       bool wrap_y, const std::vector<LinkFault>& failed_links)
    : width_(width) {
  // Every failed link as its two OUT endpoints; a port is cut when its
  // node and name match either.
  std::set<std::pair<std::int32_t, std::int32_t>> cut;  // (node, name)
  for (const LinkFault& fault : failed_links) {
    const Port out{fault.node % width, fault.node / width, fault.name,
                   Direction::kOut};
    const Port peer = wrapped_next_in(out, width, height);
    cut.insert({out.y * width + out.x, static_cast<std::int32_t>(out.name)});
    cut.insert({peer.y * width + peer.x, static_cast<std::int32_t>(peer.name)});
  }

  const auto nodes = static_cast<std::size_t>(width) *
                     static_cast<std::size_t>(height);
  begin_topology(nodes, {"E", "W", "N", "S", "L"},
                 std::uint64_t{1} << static_cast<std::size_t>(PortName::kLocal));
  std::map<Port, PortId> ids;
  for (std::size_t node = 0; node < nodes; ++node) {
    const auto x = static_cast<std::int32_t>(node % width);
    const auto y = static_cast<std::int32_t>(node / width);
    for (const PortName name : {PortName::kEast, PortName::kWest,
                                PortName::kNorth, PortName::kSouth,
                                PortName::kLocal}) {
      for (const Direction dir : {Direction::kIn, Direction::kOut}) {
        const Port p{x, y, name, dir};
        if (port_physically_exists(p, width, height, wrap_x, wrap_y) &&
            cut.count({static_cast<std::int32_t>(node),
                       static_cast<std::int32_t>(name)}) == 0) {
          ids[p] = add_port(node, static_cast<std::size_t>(name), dir);
        }
      }
    }
  }
  for (const auto& [p, pid] : ids) {
    if (has_next_in(p)) {
      set_link(pid, ids.at(wrapped_next_in(p, width, height)));
    }
  }
  finish_topology();
}

std::string OracleGrid::node_label(std::size_t node) const {
  return std::to_string(node % static_cast<std::size_t>(width_)) + "," +
         std::to_string(node / static_cast<std::size_t>(width_));
}

std::string OracleGrid::port_label(PortId pid) const {
  const std::size_t node = node_of(pid);
  return to_string(Port{static_cast<std::int32_t>(
                            node % static_cast<std::size_t>(width_)),
                        static_cast<std::int32_t>(
                            node / static_cast<std::size_t>(width_)),
                        static_cast<PortName>(name_of(pid)), dir_of(pid)});
}

}  // namespace genoc
