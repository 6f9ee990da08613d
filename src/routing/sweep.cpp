#include "routing/sweep.hpp"

#include <bit>

#include "util/require.hpp"

namespace genoc {

namespace {

inline void set_bit(std::uint64_t* row, PortId pid) {
  row[pid >> 6] |= std::uint64_t{1} << (pid & 63);
}

}  // namespace

RouteSweeper::RouteSweeper(const RoutingFunction& routing)
    : routing_(&routing),
      topo_(&routing.topology()),
      port_count_(routing.topology().port_count()),
      node_count_(routing.topology().node_count()),
      // Node mode needs the whole per-node choice in one mask: one bit per
      // port name. Topology caps name tables at 64, so this always holds
      // today; the guard keeps a wider future family from corrupting masks.
      node_mode_(routing.node_uniform() && topo_->name_count() <= 64) {
  mask_.assign(node_count_, 0);
}

void RouteSweeper::sweep(std::size_t dest_index, std::uint64_t* edge_bits,
                         std::uint64_t* row) {
  GENOC_REQUIRE(dest_index < topo_->destination_count(),
                "destination index out of range");
  if (node_mode_) {
    sweep_nodes(dest_index, edge_bits, row);
  } else {
    sweep_ports(dest_index, edge_bits, row);
  }
}

void RouteSweeper::sweep_nodes(std::size_t dest_index,
                               std::uint64_t* edge_bits, std::uint64_t* row) {
  const std::uint64_t terminal = topo_->terminal_name_mask();
  const std::size_t spn = topo_->slots_per_node();
  constexpr auto kOut = static_cast<std::size_t>(Direction::kOut);
  constexpr auto kIn = static_cast<std::size_t>(Direction::kIn);
  // Non-existent out-ports drop out of a node's mask, mirroring the generic
  // construction's existence filter.
  const auto out_mask = [this](std::size_t node) {
    return mask_[node] & topo_->out_exists_mask(node);
  };

  // One mask per node decides the out-ports of every in-port of that node
  // (the node-uniformity contract). Terminal IN ports are always visited
  // (messages inject everywhere); a selected non-terminal out-port visits
  // the in-port its link drives (the route tree's hop), which takes its
  // own node's mask. The masks come batched — fill_node_masks hoists the
  // per-destination lookups out of the node loop.
  routing_->fill_node_masks(dest_index, mask_.data());
  const PortId* slots = topo_->node_slots(0);
  for (std::size_t node = 0; node < node_count_; ++node, slots += spn) {
    const std::uint64_t mask = out_mask(node);
    for (std::uint64_t term_in = terminal; term_in != 0;
         term_in &= term_in - 1) {
      const PortId tin = slots[std::countr_zero(term_in) * 2 + kIn];
      if (tin == kInvalidPort) {
        continue;
      }
      if (row != nullptr) {
        set_bit(row, tin);
      }
      if (edge_bits != nullptr) {
        edge_bits[tin] |= mask;
      }
    }
    for (std::uint64_t cardinal = mask & ~terminal; cardinal != 0;
         cardinal &= cardinal - 1) {
      const PortId opid = slots[std::countr_zero(cardinal) * 2 + kOut];
      const PortId tgt = topo_->link_target(opid);
      if (row != nullptr) {
        set_bit(row, opid);
        set_bit(row, tgt);
      }
      if (edge_bits != nullptr) {
        edge_bits[opid] |= kLinkBit;
        edge_bits[tgt] |= out_mask(topo_->node_of(tgt));
      }
    }
    for (std::uint64_t deliver = mask & terminal; deliver != 0 && row != nullptr;
         deliver &= deliver - 1) {
      set_bit(row, slots[std::countr_zero(deliver) * 2 + kOut]);
    }
  }
}

std::uint64_t RouteSweeper::hop_edge_bits(PortId pid) const {
  const bool out = topo_->dir_of(pid) == Direction::kOut;
  std::uint64_t bits = 0;
  for (const PortId q : hop_ids_) {
    GENOC_REQUIRE(out ? q == topo_->link_target(pid)
                      : topo_->dir_of(q) == Direction::kOut &&
                            topo_->node_of(q) == topo_->node_of(pid),
                  "hop " + topo_->port_label(pid) + " -> " +
                      topo_->port_label(q) +
                      " has no edge bit: an in-port hops to its node's "
                      "out-ports, an out-port to its link target");
    bits |= out ? kLinkBit : std::uint64_t{1} << topo_->name_of(q);
  }
  return bits;
}

void RouteSweeper::sweep_ports(std::size_t dest_index,
                               std::uint64_t* edge_bits, std::uint64_t* row) {
  if (stamp_.empty()) {
    stamp_.assign(port_count_, 0);
  }
  ++epoch_;
  frontier_.clear();
  // Messages enter the network at terminal IN ports; every port a route can
  // visit from there (under this destination) is reachable-consistent.
  for (const PortId src : topo_->source_ids()) {
    stamp_[src] = epoch_;
    frontier_.push_back(src);
  }
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const PortId pid = frontier_[head];
    hop_ids_.clear();
    routing_->next_hop_ids_into(pid, dest_index, hop_ids_, hops_);
    if (edge_bits != nullptr) {
      edge_bits[pid] |= hop_edge_bits(pid);
    }
    for (const PortId q : hop_ids_) {
      if (stamp_[q] != epoch_) {
        stamp_[q] = epoch_;
        frontier_.push_back(q);
      }
    }
  }
  if (row != nullptr) {
    for (const PortId pid : frontier_) {
      set_bit(row, pid);
    }
  }
}

}  // namespace genoc
