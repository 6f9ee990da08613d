#include "topology/topology.hpp"

#include <string>

#include "topology/port.hpp"
#include "util/require.hpp"

namespace genoc {

const std::vector<TopologyFamilyInfo>& topology_families() {
  static const std::vector<TopologyFamilyInfo> kFamilies = {
      {"mesh", "size=WxH (dims 1..512, >= 2 nodes)",
       "HERMES 2D mesh, five ports per switch (paper Fig. 1)"},
      {"torus", "size=WxH (wrapped dims >= 2)",
       "2D mesh with both dimensions wrapped (dateline deadlock fixture)"},
      {"ring", "size=WxH (width >= 2)",
       "2D mesh with the x dimension wrapped"},
      {"cmesh", "size=WxH concentration=C (C in 1..8)",
       "concentrated mesh: C terminals share each router"},
      {"dragonfly", "routers=A globals=H terminals=P groups=G "
       "(A in 2..16, H/P in 1..8, G in 2..A*H+1, default A*H+1)",
       "hierarchical groups, complete local graph + global channels"},
  };
  return kFamilies;
}

bool is_grid_family(const std::string& family) {
  return family == "mesh" || family == "torus" || family == "ring";
}

std::string Topology::port_label(PortId pid) const {
  GENOC_REQUIRE(pid < port_count(), "port id out of range");
  return "<" + node_label(node_of(pid)) + "," + names_[name_of(pid)] + "," +
         direction_name(dir_of(pid)) + ">";
}

void Topology::begin_topology(std::size_t nodes,
                              std::vector<std::string> names,
                              std::uint64_t terminal_mask,
                              std::size_t ports) {
  GENOC_REQUIRE(nodes >= 2, "a topology needs at least two nodes");
  GENOC_REQUIRE(!names.empty() && names.size() <= 64,
                "port-name table must hold 1..64 names");
  GENOC_REQUIRE(terminal_mask != 0 &&
                    (names.size() == 64 ||
                     terminal_mask < (std::uint64_t{1} << names.size())),
                "terminal mask must select port-name table entries");
  node_count_ = nodes;
  names_ = std::move(names);
  terminal_mask_ = terminal_mask;
  port_info_.clear();
  port_info_.reserve(ports);
  slot_ids_.assign(node_count_ * slots_per_node(), kInvalidPort);
  link_to_.clear();
  link_to_.reserve(ports);
}

void Topology::finish_topology() {
  const std::size_t ports = port_info_.size();
  dest_ids_.clear();
  source_ids_.clear();
  dest_index_.assign(ports, kInvalidPort);
  exist_out_.assign(node_count_, 0);
  link_from_.assign(ports, kInvalidPort);
  std::size_t links = 0;
  std::size_t fabric_ins = 0;
  for (PortId pid = 0; pid < ports; ++pid) {
    const PortInfo info = port_info_[pid];
    const bool terminal = (terminal_mask_ >> info.name) & 1;
    if (static_cast<Direction>(info.dir) == Direction::kOut) {
      exist_out_[info.node] |= std::uint64_t{1} << info.name;
      if (terminal) {
        dest_index_[pid] = static_cast<PortId>(dest_ids_.size());
        dest_ids_.push_back(pid);
        continue;
      }
      const PortId in = link_to_[pid];
      GENOC_REQUIRE(in != kInvalidPort, "non-terminal OUT port " +
                                            port_label(pid) +
                                            " has no link target");
      GENOC_REQUIRE(link_from_[in] == kInvalidPort,
                    "IN port " + port_label(in) +
                        " is the target of two links");
      link_from_[in] = pid;
      ++links;
    } else if (terminal) {
      source_ids_.push_back(pid);
    } else {
      ++fabric_ins;
    }
  }
  // Each link drives a distinct non-terminal IN port (set_link, and the
  // check above), so all of them are driven iff there are as many links.
  GENOC_REQUIRE(links == fabric_ins,
                std::to_string(fabric_ins - links) +
                    " non-terminal IN ports have no link source");
  // Every node injects and ejects; source_ids_ ascends in node order.
  auto source = source_ids_.begin();
  for (std::size_t node = 0; node < node_count_; ++node) {
    while (source != source_ids_.end() && node_of(*source) < node) {
      ++source;
    }
    GENOC_REQUIRE(source != source_ids_.end() && node_of(*source) == node,
                  "node " + node_label(node) + " has no terminal IN port");
    GENOC_REQUIRE((exist_out_[node] & terminal_mask_) != 0,
                  "node " + node_label(node) + " has no terminal OUT port");
  }
}

}  // namespace genoc
