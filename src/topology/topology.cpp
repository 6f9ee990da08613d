#include "topology/topology.hpp"

#include <algorithm>
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
                              std::uint64_t terminal_mask) {
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
  slot_ids_.assign(node_count_ * slots_per_node(), kInvalidPort);
  link_to_.clear();
}

PortId Topology::add_port(std::size_t node, std::size_t name, Direction dir) {
  GENOC_REQUIRE(node < node_count_ && name < names_.size(),
                "add_port outside the declared topology");
  const std::size_t slot =
      node * slots_per_node() + name * 2 + static_cast<std::size_t>(dir);
  GENOC_REQUIRE(slot_ids_[slot] == kInvalidPort, "duplicate port");
  if (!port_info_.empty()) {
    // Enforce the node-major, name-major, dir-minor enumeration contract
    // destination ordering (and thus dest_index stability) rests on.
    const PortInfo& prev = port_info_.back();
    const auto prev_key = (static_cast<std::uint64_t>(prev.node) << 16) |
                          (static_cast<std::uint64_t>(prev.name) << 1) |
                          prev.dir;
    const auto key = (static_cast<std::uint64_t>(node) << 16) |
                     (static_cast<std::uint64_t>(name) << 1) |
                     static_cast<std::uint64_t>(dir);
    GENOC_REQUIRE(key > prev_key,
                  "ports must be added node-major, name-major, dir-minor");
  }
  const auto pid = static_cast<PortId>(port_info_.size());
  slot_ids_[slot] = pid;
  port_info_.push_back(PortInfo{static_cast<std::uint32_t>(node),
                                static_cast<std::uint8_t>(name),
                                static_cast<std::uint8_t>(dir)});
  link_to_.push_back(kInvalidPort);
  return pid;
}

void Topology::set_link(PortId out, PortId in) {
  GENOC_REQUIRE(out < port_info_.size() && in < port_info_.size(),
                "link endpoints must be existing ports");
  GENOC_REQUIRE(dir_of(out) == Direction::kOut && dir_of(in) == Direction::kIn,
                "links run from an OUT port to an IN port");
  GENOC_REQUIRE(((terminal_mask_ >> name_of(out)) & 1) == 0 &&
                    ((terminal_mask_ >> name_of(in)) & 1) == 0,
                "links join non-terminal ports; terminal ones face the core");
  link_to_[out] = in;
}

void Topology::derive_topology(const Topology& base,
                               const std::vector<PortId>& removed) {
  node_count_ = base.node_count_;
  names_ = base.names_;
  terminal_mask_ = base.terminal_mask_;
  // remap: base id -> derived id, kInvalidPort for a removed port.
  std::vector<PortId> remap(base.port_count());
  port_info_.clear();
  port_info_.reserve(base.port_count() - std::min(removed.size(),
                                                  base.port_count()));
  auto next_removed = removed.begin();
  for (PortId pid = 0; pid < base.port_count(); ++pid) {
    if (next_removed != removed.end() && *next_removed == pid) {
      remap[pid] = kInvalidPort;
      ++next_removed;
      continue;
    }
    remap[pid] = static_cast<PortId>(port_info_.size());
    port_info_.push_back(base.port_info_[pid]);
  }
  GENOC_REQUIRE(next_removed == removed.end(),
                "removed ports must be sorted, distinct base port ids");
  const auto renumber = [&remap](PortId pid) {
    return pid == kInvalidPort ? kInvalidPort : remap[pid];
  };
  slot_ids_.resize(base.slot_ids_.size());
  std::transform(base.slot_ids_.begin(), base.slot_ids_.end(),
                 slot_ids_.begin(), renumber);
  link_to_.assign(port_info_.size(), kInvalidPort);
  for (PortId pid = 0; pid < base.port_count(); ++pid) {
    if (remap[pid] != kInvalidPort) {
      link_to_[remap[pid]] = renumber(base.link_to_[pid]);
    }
  }
  finish_topology();
}

void Topology::finish_topology() {
  dest_ids_.clear();
  source_ids_.clear();
  dest_index_.assign(port_info_.size(), kNotADestination);
  exist_out_.assign(node_count_, 0);
  link_from_.assign(port_info_.size(), kInvalidPort);
  std::size_t links = 0;
  for (PortId out = 0; out < port_info_.size(); ++out) {
    const PortId in = link_to_[out];
    if (in != kInvalidPort) {
      GENOC_REQUIRE(link_from_[in] == kInvalidPort,
                    "IN port " + port_label(in) +
                        " is the target of two links");
      link_from_[in] = out;
      ++links;
    }
  }
  std::size_t fabric_ins = 0;
  for (PortId pid = 0; pid < port_info_.size(); ++pid) {
    const std::size_t name = name_of(pid);
    const bool terminal = (terminal_mask_ >> name) & 1;
    if (dir_of(pid) == Direction::kOut) {
      exist_out_[node_of(pid)] |= std::uint64_t{1} << name;
      if (terminal) {
        dest_index_[pid] = dest_ids_.size();
        dest_ids_.push_back(pid);
      } else {
        GENOC_REQUIRE(link_to_[pid] != kInvalidPort,
                      "non-terminal OUT port " + port_label(pid) +
                          " has no link target");
      }
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
