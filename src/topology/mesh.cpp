#include "topology/mesh.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <utility>

#include "util/require.hpp"

namespace genoc {

namespace {

constexpr std::uint32_t name_bit(PortName name) {
  return std::uint32_t{1} << static_cast<std::uint32_t>(name);
}

/// The cardinal names of node (x, y) that have a neighbour: inside the
/// mesh, or across a wrapped dimension (torus links keep boundary ports
/// alive). Fig. 1b: edge switches of HERMES simply lack the off-mesh links.
std::uint32_t boundary_names(std::int32_t x, std::int32_t y,
                             std::int32_t width, std::int32_t height,
                             bool wrap_x, bool wrap_y) {
  // North decreases y.
  return (wrap_x || x + 1 < width ? name_bit(PortName::kEast) : 0u) |
         (wrap_x || x > 0 ? name_bit(PortName::kWest) : 0u) |
         (wrap_y || y > 0 ? name_bit(PortName::kNorth) : 0u) |
         (wrap_y || y + 1 < height ? name_bit(PortName::kSouth) : 0u);
}

/// Both directed endpoints (node, name) of every fault's link, sorted and
/// distinct. Requires every fault to name an existing non-terminal link.
std::vector<LinkFault> cut_endpoints(const std::vector<LinkFault>& faults,
                                     std::int32_t width, std::int32_t height,
                                     bool wrap_x, bool wrap_y) {
  std::vector<LinkFault> cut;
  cut.reserve(faults.size() * 2);
  for (const LinkFault& fault : faults) {
    GENOC_REQUIRE(link_fault_exists(fault, width, height, wrap_x, wrap_y),
                  "failed link does not exist in this mesh: " +
                      link_fault_token(fault));
    cut.push_back(fault);
    cut.push_back(link_fault_peer(fault, width, height, wrap_x, wrap_y));
  }
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  return cut;
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
  const std::uint32_t names = boundary_names(
      fault.node % width, fault.node / width, width, height, wrap_x, wrap_y);
  return (names & name_bit(fault.name)) != 0;
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
               bool wrap_y, std::vector<LinkFault> failed_links)
    : width_(width),
      height_(height),
      wrap_x_(wrap_x),
      wrap_y_(wrap_y),
      failed_links_(std::move(failed_links)) {
  GENOC_REQUIRE(width >= 1 && height >= 1, "mesh dimensions must be positive");
  GENOC_REQUIRE(static_cast<std::int64_t>(width) * height >= 2,
                "a mesh needs at least two nodes");
  GENOC_REQUIRE(!wrap_x || width >= 2, "wrapping x needs at least 2 columns");
  GENOC_REQUIRE(!wrap_y || height >= 2, "wrapping y needs at least 2 rows");
  // The names the fill leaves out of each node.
  const std::vector<LinkFault> cut =
      cut_endpoints(failed_links_, width_, height_, wrap_x_, wrap_y_);

  const auto w = static_cast<std::size_t>(width_);
  const auto h = static_cast<std::size_t>(height_);
  const std::size_t nodes = w * h;
  // Two Local ports per node, four per bidirectional link, two fewer per
  // cut endpoint.
  const std::size_t links =
      (wrap_x_ ? w : w - 1) * h + (wrap_y_ ? h : h - 1) * w;
  const std::size_t ports = 2 * nodes + 4 * links - 2 * cut.size();
  begin_topology(nodes, {"E", "W", "N", "S", "L"},
                 name_bit(PortName::kLocal), ports);
  GENOC_ASSERT(slots_per_node() == kPortSlotsPerNode,
               "Mesh2D::slot() assumes the five-name slot stride");
  coords_.reserve(nodes);
  auto next_cut = cut.begin();
  for (std::int32_t y = 0; y < height_; ++y) {
    for (std::int32_t x = 0; x < width_; ++x) {
      const std::size_t node = coords_.size();
      coords_.push_back(NodeCoord{x, y});
      std::uint32_t names =
          boundary_names(x, y, width_, height_, wrap_x_, wrap_y_) |
          name_bit(PortName::kLocal);
      for (; next_cut != cut.end() &&
             static_cast<std::size_t>(next_cut->node) == node;
           ++next_cut) {
        names &= ~name_bit(next_cut->name);
      }
      for (; names != 0; names &= names - 1) {
        const auto name = static_cast<std::size_t>(std::countr_zero(names));
        add_port(node, name, Direction::kIn);
        add_port(node, name, Direction::kOut);
      }
    }
  }
  GENOC_ASSERT(port_count() == ports,
               "the grid fill disagrees with its port census");

  // Link every cardinal OUT port to its neighbour's opposite IN slot. The
  // arithmetic wraps at every border; only a wrapped one has the OUT port.
  const PortId* slots = slot_table();
  for (std::size_t y = 0; y < h; ++y) {
    const std::size_t north = (y == 0 ? h - 1 : y - 1) * w;
    const std::size_t south = (y + 1 == h ? 0 : y + 1) * w;
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t neighbour[4] = {y * w + (x + 1 == w ? 0 : x + 1),
                                        y * w + (x == 0 ? w - 1 : x - 1),
                                        north + x, south + x};
      const PortId* own = slots + (y * w + x) * kPortSlotsPerNode;
      for (const PortName name : {PortName::kEast, PortName::kWest,
                                  PortName::kNorth, PortName::kSouth}) {
        const PortId out = own[port_slot(name, Direction::kOut)];
        if (out != kInvalidPort) {
          set_link(out, slots[neighbour[static_cast<std::size_t>(name)] *
                                  kPortSlotsPerNode +
                              port_slot(opposite(name), Direction::kIn)]);
        }
      }
    }
  }
  finish_topology();
}

std::vector<PortId> removed_base_ports(const Mesh2D& base,
                                       const std::vector<LinkFault>& faults) {
  GENOC_REQUIRE(!base.has_faults(),
                "removed ports are named in an unfaulted grid's ids");
  // Ids ascend node-major, name-major, dir-minor, so the sorted, distinct
  // endpoints yield sorted, distinct ids.
  std::vector<PortId> removed;
  for (const LinkFault& end : cut_endpoints(faults, base.width(), base.height(),
                                            base.wraps_x(), base.wraps_y())) {
    const auto node = static_cast<std::size_t>(end.node);
    const auto name = static_cast<std::size_t>(end.name);
    removed.push_back(base.slot_id(node, name, Direction::kIn));
    removed.push_back(base.slot_id(node, name, Direction::kOut));
  }
  return removed;
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
