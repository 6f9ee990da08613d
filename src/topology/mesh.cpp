#include "topology/mesh.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "util/require.hpp"

namespace genoc {

namespace {

/// A cardinal port exists iff the neighbour it would connect to is inside
/// the mesh — or the dimension wraps (torus links keep boundary ports
/// alive); Local ports always exist (Fig. 1b: edge switches of HERMES
/// simply lack the off-mesh links).
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

}  // namespace

std::optional<LinkFault> parse_link_fault(const std::string& token,
                                          std::string* error) {
  const auto complain = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "bad failed-link token '" + token + "': " + why +
               " (expected <node>:<E|W|N|S>)";
    }
    return std::nullopt;
  };
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 2 != token.size()) {
    return complain("expected one ':' followed by a single port letter");
  }
  std::uint32_t node = 0;
  const char* begin = token.data();
  const auto [ptr, ec] = std::from_chars(begin, begin + colon, node);
  if (ec != std::errc{} || ptr != begin + colon) {
    return complain("the node index is not a number");
  }
  LinkFault fault;
  fault.node = static_cast<std::int32_t>(node);
  switch (std::toupper(static_cast<unsigned char>(token[colon + 1]))) {
    case 'E': fault.name = PortName::kEast; break;
    case 'W': fault.name = PortName::kWest; break;
    case 'N': fault.name = PortName::kNorth; break;
    case 'S': fault.name = PortName::kSouth; break;
    case 'L':
      return complain("terminal (L) links cannot fail — fault campaigns "
                      "honor the injection/ejection exclusions");
    default:
      return complain("unknown port letter");
  }
  return fault;
}

std::string link_fault_token(const LinkFault& fault) {
  return std::to_string(fault.node) + ":" + port_name_letter(fault.name);
}

bool link_fault_exists(const LinkFault& fault, std::int32_t width,
                       std::int32_t height, bool wrap_x, bool wrap_y) {
  if (fault.node < 0 ||
      static_cast<std::int64_t>(fault.node) >=
          static_cast<std::int64_t>(width) * height ||
      fault.name == PortName::kLocal) {
    return false;
  }
  const Port out{fault.node % width, fault.node / width, fault.name,
                 Direction::kOut};
  return port_physically_exists(out, width, height, wrap_x, wrap_y);
}

LinkFault link_fault_peer(const LinkFault& fault, std::int32_t width,
                          std::int32_t height, bool wrap_x, bool wrap_y) {
  GENOC_REQUIRE(link_fault_exists(fault, width, height, wrap_x, wrap_y),
                "peer of a non-existent link fault: " +
                    link_fault_token(fault));
  const Port out{fault.node % width, fault.node / width, fault.name,
                 Direction::kOut};
  Port in = next_in(out);
  if (wrap_x) {
    in.x = (in.x + width) % width;
  }
  if (wrap_y) {
    in.y = (in.y + height) % height;
  }
  return LinkFault{in.y * width + in.x, opposite(fault.name)};
}

LinkFault canonical_link_fault(const LinkFault& fault, std::int32_t width,
                               std::int32_t height, bool wrap_x,
                               bool wrap_y) {
  if (!link_fault_exists(fault, width, height, wrap_x, wrap_y)) {
    return fault;
  }
  const LinkFault peer =
      link_fault_peer(fault, width, height, wrap_x, wrap_y);
  return peer < fault ? peer : fault;
}

Mesh2D::Mesh2D(std::int32_t width, std::int32_t height, bool wrap_x,
               bool wrap_y)
    : width_(width), height_(height), wrap_x_(wrap_x), wrap_y_(wrap_y) {
  GENOC_REQUIRE(width >= 1 && height >= 1, "mesh dimensions must be positive");
  GENOC_REQUIRE(static_cast<std::int64_t>(width) * height >= 2,
                "a mesh needs at least two nodes");
  GENOC_REQUIRE(!wrap_x || width >= 2, "wrapping x needs at least 2 columns");
  GENOC_REQUIRE(!wrap_y || height >= 2, "wrapping y needs at least 2 rows");
  const auto nodes =
      static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  begin_topology(nodes, {"E", "W", "N", "S", "L"},
                 std::uint64_t{1} << static_cast<std::size_t>(PortName::kLocal));
  GENOC_ASSERT(slots_per_node() == kPortSlotsPerNode,
               "Mesh2D::slot() assumes the five-name slot stride");
  coords_.reserve(nodes);
  for (std::int32_t y = 0; y < height_; ++y) {
    for (std::int32_t x = 0; x < width_; ++x) {
      coords_.push_back(NodeCoord{x, y});
    }
  }

  // Enumerate ports node-major so ids are stable and human-predictable.
  for (std::size_t node = 0; node < nodes; ++node) {
    const NodeCoord at = coords_[node];
    for (PortName name : {PortName::kEast, PortName::kWest, PortName::kNorth,
                          PortName::kSouth, PortName::kLocal}) {
      for (Direction direction : {Direction::kIn, Direction::kOut}) {
        const Port p{at.x, at.y, name, direction};
        if (port_physically_exists(p, width_, height_, wrap_x_, wrap_y_)) {
          add_port(node, static_cast<std::size_t>(name), direction);
        }
      }
    }
  }
  for (PortId pid = 0; pid < port_count(); ++pid) {
    const Port p = port(pid);
    if (p.dir == Direction::kOut && p.name != PortName::kLocal) {
      set_link(pid, id(next_in(p)));
    }
  }
  finish_topology();
}

Mesh2D::Mesh2D(std::int32_t width, std::int32_t height, bool wrap_x,
               bool wrap_y, const std::vector<LinkFault>& failed_links)
    : Mesh2D(Mesh2D(width, height, wrap_x, wrap_y), failed_links) {}

Mesh2D::Mesh2D(const Mesh2D& base, const std::vector<LinkFault>& failed_links)
    : width_(base.width_),
      height_(base.height_),
      wrap_x_(base.wrap_x_),
      wrap_y_(base.wrap_y_),
      failed_links_(failed_links),
      coords_(base.coords_) {
  GENOC_REQUIRE(!base.has_faults(),
                "faulted grids derive from an unfaulted base grid");
  // A failed link removes its four channel ports (both directed channels'
  // OUT + IN), so removal is closed under the link pairing: a surviving
  // cardinal OUT port always keeps its surviving target.
  removed_base_ports_.reserve(failed_links_.size() * 4);
  for (const LinkFault& fault : failed_links_) {
    GENOC_REQUIRE(link_fault_exists(fault, width_, height_, wrap_x_, wrap_y_),
                  "failed link does not exist in this mesh: " +
                      link_fault_token(fault));
    const LinkFault peer =
        link_fault_peer(fault, width_, height_, wrap_x_, wrap_y_);
    for (const LinkFault& end : {fault, peer}) {
      const NodeCoord at = coords_[static_cast<std::size_t>(end.node)];
      for (const Direction dir : {Direction::kIn, Direction::kOut}) {
        removed_base_ports_.push_back(base.id(Port{at.x, at.y, end.name, dir}));
      }
    }
  }
  std::sort(removed_base_ports_.begin(), removed_base_ports_.end());
  removed_base_ports_.erase(
      std::unique(removed_base_ports_.begin(), removed_base_ports_.end()),
      removed_base_ports_.end());
  derive_topology(base, removed_base_ports_);
}

std::string Mesh2D::family() const {
  if (wrap_y_) {
    return "torus";
  }
  return wrap_x_ ? "ring" : "mesh";
}

std::string Mesh2D::node_label(std::size_t node) const {
  const NodeCoord at = coords_.at(node);
  return std::to_string(at.x) + "," + std::to_string(at.y);
}

std::string Mesh2D::port_label(PortId pid) const {
  return to_string(port(pid));
}

bool Mesh2D::contains_node(std::int32_t x, std::int32_t y) const {
  return x >= 0 && x < width_ && y >= 0 && y < height_;
}

Port Mesh2D::next_in(const Port& p) const {
  GENOC_REQUIRE(exists(p), "next_in of a non-existent port: " + to_string(p));
  GENOC_REQUIRE(has_next_in(p),
                "next_in requires a cardinal OUT port, got " + to_string(p));
  Port q = genoc::next_in(p);
  if (wrap_x_) {
    q.x = (q.x + width_) % width_;
  }
  if (wrap_y_) {
    q.y = (q.y + height_) % height_;
  }
  GENOC_ASSERT(exists(q), "wrapped link target does not exist");
  return q;
}

bool Mesh2D::exists(const Port& p) const { return try_id(p) >= 0; }

PortId Mesh2D::id(const Port& p) const {
  GENOC_REQUIRE(contains_node(p.x, p.y),
                "port node outside mesh: " + to_string(p));
  const PortId pid = slot_table()[slot(p)];
  GENOC_REQUIRE(pid != kInvalidPort,
                "port does not exist in mesh: " + to_string(p));
  return pid;
}

Port Mesh2D::local_in(std::int32_t x, std::int32_t y) const {
  GENOC_REQUIRE(contains_node(x, y), "node outside mesh");
  return Port{x, y, PortName::kLocal, Direction::kIn};
}

Port Mesh2D::local_out(std::int32_t x, std::int32_t y) const {
  GENOC_REQUIRE(contains_node(x, y), "node outside mesh");
  return Port{x, y, PortName::kLocal, Direction::kOut};
}

std::vector<Port> Mesh2D::destinations() const {
  std::vector<Port> result;
  result.reserve(node_count());
  for (const NodeCoord node : nodes()) {
    result.push_back(local_out(node.x, node.y));
  }
  return result;
}

std::vector<Port> Mesh2D::sources() const {
  std::vector<Port> result;
  result.reserve(node_count());
  for (const NodeCoord node : nodes()) {
    result.push_back(local_in(node.x, node.y));
  }
  return result;
}

}  // namespace genoc
