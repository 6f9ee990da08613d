#include "routing/routing.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "routing/sweep.hpp"
#include "util/require.hpp"

namespace genoc {

namespace {

inline bool row_bit(const std::uint64_t* row, PortId pid) {
  return ((row[pid >> 6] >> (pid & 63)) & 1u) != 0;
}

}  // namespace

ClosureRowScratch::ClosureRowScratch() = default;
ClosureRowScratch::~ClosureRowScratch() = default;
ClosureRowScratch::ClosureRowScratch(ClosureRowScratch&&) noexcept = default;
ClosureRowScratch& ClosureRowScratch::operator=(ClosureRowScratch&&) noexcept =
    default;

RoutingFunction::~RoutingFunction() {
  if (rows_ != nullptr) {
    for (std::size_t i = 0; i < topo_->destination_count(); ++i) {
      delete rows_[i].load(std::memory_order_relaxed);
    }
  }
}

bool RoutingFunction::valid_endpoints(const Port& s, const Port& d) const {
  const Mesh2D& m = mesh();
  return m.exists(s) && d.name == PortName::kLocal &&
         d.dir == Direction::kOut && m.exists(d);
}

void RoutingFunction::append_next_hops(const Port& /*current*/,
                                       const Port& /*dest*/,
                                       std::vector<Port>& /*out*/) const {
  GENOC_REQUIRE(false, "append_next_hops is the grid Port-tuple API; " +
                           name() + " is id-native — use append_next_hop_ids");
}

void RoutingFunction::append_next_hop_ids(PortId /*current*/,
                                          std::size_t /*dest_index*/,
                                          std::vector<PortId>& /*out*/) const {
  GENOC_REQUIRE(false, "append_next_hop_ids must be implemented by id-native "
                       "routing functions (" + name() + ")");
}

void RoutingFunction::next_hop_ids_into(PortId current, std::size_t dest_index,
                                        std::vector<PortId>& out,
                                        std::vector<Port>& scratch) const {
  if (id_native()) {
    append_next_hop_ids(current, dest_index, out);
    return;
  }
  const Mesh2D& m = mesh();
  scratch.clear();
  append_next_hops(m.port(current), m.port(topo_->destination_id(dest_index)),
                   scratch);
  for (const Port& hop : scratch) {
    // A routing function may only produce existing ports for reachable
    // inputs; a violation is a (C-1)-detectable bug the id layer neither
    // records nor propagates through.
    const std::int32_t qid = m.try_id(hop);
    if (qid >= 0) {
      out.push_back(static_cast<PortId>(qid));
    }
  }
}

std::uint8_t RoutingFunction::node_out_mask(std::int32_t /*x*/,
                                            std::int32_t /*y*/,
                                            const Port& /*dest*/) const {
  GENOC_REQUIRE(false, "node_out_mask requires a node_uniform() routing "
                       "function (" + name() + " is not)");
  return 0;
}

std::uint64_t RoutingFunction::out_mask_id(std::size_t node,
                                           std::size_t dest_index) const {
  const Mesh2D& m = mesh();  // id-native functions must override
  const NodeCoord at = m.nodes()[node];
  return node_out_mask(at.x, at.y, m.port(topo_->destination_id(dest_index)));
}

void RoutingFunction::fill_node_masks(std::size_t dest_index,
                                      std::uint64_t* masks) const {
  if (!id_native() && grid_ != nullptr) {
    // Hoist the destination Port out of the per-node loop; the remaining
    // cost is one virtual call per node.
    const Port dest = grid_->port(topo_->destination_id(dest_index));
    for (const NodeCoord at : grid_->nodes()) {
      *masks++ = node_out_mask(at.x, at.y, dest);
    }
    return;
  }
  for (std::size_t node = 0; node < topo_->node_count(); ++node) {
    masks[node] = out_mask_id(node, dest_index);
  }
}

void NodeUniformRouting::append_next_hops(const Port& current,
                                          const Port& dest,
                                          std::vector<Port>& out) const {
  if (current.dir == Direction::kOut) {
    if (current.name != PortName::kLocal) {
      out.push_back(mesh().next_in(current));
    }
    return;
  }
  // Ascending bit order is ascending PortName order.
  for (unsigned mask = node_out_mask(current.x, current.y, dest); mask != 0;
       mask &= mask - 1) {
    out.push_back(trans(current, static_cast<PortName>(std::countr_zero(mask)),
                        Direction::kOut));
  }
}

std::uint64_t RoutingFunction::in_port_union(std::size_t /*node*/,
                                             std::size_t /*in_name*/) const {
  GENOC_REQUIRE(false, "in_port_union requires has_in_port_unions() (" +
                           name() + " does not implement it)");
  return 0;
}

namespace {

/// One dimension of a dimension-order route at coordinate c of extent n.
/// any_pos: some destination lies toward growing c (East/South); pos_live:
/// the in-port facing shrinking c (W,IN or N,IN) ever holds such a packet;
/// pos_cont: it can move on. The neg_* flags mirror them.
struct Axis {
  bool any_pos, any_neg, pos_live, pos_cont, neg_live, neg_cont;
};

Axis make_axis(std::size_t n, std::size_t c, bool wrap) {
  if (wrap) {  // shortest-way deltas 1..n/2 and -1..-(ceil(n/2)-1)
    return {n >= 2, n >= 3, n >= 2, n >= 4, n >= 3, n >= 5};
  }
  return {c + 1 < n, c > 0, c > 0, c + 1 < n, c + 1 < n, c > 0};
}

std::uint64_t bit_if(bool on, PortName name) {
  return on ? port_name_bit(name) : 0;
}

}  // namespace

std::uint64_t dimension_order_in_port_union(const Mesh2D& mesh,
                                            std::size_t node,
                                            std::size_t in_name, bool x_first,
                                            bool wrap) {
  const NodeCoord at = mesh.nodes()[node];
  const Axis x = make_axis(static_cast<std::size_t>(mesh.width()),
                           static_cast<std::size_t>(at.x),
                           wrap && mesh.wraps_x());
  const Axis y = make_axis(static_cast<std::size_t>(mesh.height()),
                           static_cast<std::size_t>(at.y),
                           wrap && mesh.wraps_y());
  const std::uint64_t local = port_name_bit(PortName::kLocal);
  const std::uint64_t start_x =
      bit_if(x.any_pos, PortName::kEast) | bit_if(x.any_neg, PortName::kWest);
  const std::uint64_t start_y =
      bit_if(y.any_pos, PortName::kSouth) | bit_if(y.any_neg, PortName::kNorth);
  // An in-port of the first dimension may still turn into the second; one
  // of the second dimension only continues or delivers.
  const std::uint64_t after_x = local | (x_first ? start_y : 0);
  const std::uint64_t after_y = local | (x_first ? 0 : start_x);
  switch (static_cast<PortName>(in_name)) {
    case PortName::kLocal:
      return start_x | start_y | local;
    case PortName::kWest:  // eastbound
      return x.pos_live ? bit_if(x.pos_cont, PortName::kEast) | after_x : 0;
    case PortName::kEast:  // westbound
      return x.neg_live ? bit_if(x.neg_cont, PortName::kWest) | after_x : 0;
    case PortName::kNorth:  // southbound
      return y.pos_live ? bit_if(y.pos_cont, PortName::kSouth) | after_y : 0;
    case PortName::kSouth:  // northbound
      return y.neg_live ? bit_if(y.neg_cont, PortName::kNorth) | after_y : 0;
  }
  return 0;
}

bool RoutingFunction::reachable_id(PortId s, std::size_t dest_index) const {
  if (!id_native() && grid_ != nullptr) {
    return reachable(grid_->port(s),
                     grid_->port(topo_->destination_id(dest_index)));
  }
  return closure_reachable_id(s, dest_index);
}

bool RoutingFunction::closure_reachable(const Port& s, const Port& d) const {
  if (!valid_endpoints(s, d)) {
    return false;
  }
  // One terminal per node, enumerated node-major: the dest index of a grid
  // Local OUT port is its row-major node index.
  const auto dest_index = static_cast<std::size_t>(d.y) *
                              static_cast<std::size_t>(grid_->width()) +
                          static_cast<std::size_t>(d.x);
  return closure_reachable_id(grid_->id(s), dest_index);
}

std::uint64_t RoutingFunction::closure_bytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

void RoutingFunction::note_row_built(std::uint64_t bytes_delta) const {
  rows_built_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t total =
      bytes_.fetch_add(bytes_delta, std::memory_order_relaxed) + bytes_delta;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  static obs::Counter& rows = metrics.counter("closure.rows_built");
  rows.increment();
  metrics.gauge("closure.bytes").record_max(static_cast<std::int64_t>(total));
}

bool RoutingFunction::node_mask_reachable(PortId s,
                                          std::size_t dest_index) const {
  // Mirrors RouteSweeper::sweep_nodes row semantics without any storage:
  // terminal IN ports are always visited (messages inject everywhere); an
  // OUT port is visited iff its node's mask selects it; a cardinal IN port
  // is visited iff the out-port whose link drives it is selected at ITS
  // node. The queried port exists, so the existence filter is implied.
  const std::size_t name = topo_->name_of(s);
  if (topo_->dir_of(s) == Direction::kIn) {
    if (((topo_->terminal_name_mask() >> name) & 1u) != 0) {
      return true;
    }
    const PortId driver = topo_->link_source(s);
    if (driver == kInvalidPort) {
      return false;
    }
    const std::uint64_t mask = out_mask_id(topo_->node_of(driver), dest_index);
    return ((mask >> topo_->name_of(driver)) & 1u) != 0;
  }
  const std::uint64_t mask = out_mask_id(topo_->node_of(s), dest_index);
  return ((mask >> name) & 1u) != 0;
}

void RoutingFunction::ensure_rows_allocated() const {
  std::call_once(rows_once_, [this] {
    rows_ = std::make_unique<std::atomic<CompressedRow*>[]>(
        topo_->destination_count());
    for (std::size_t i = 0; i < topo_->destination_count(); ++i) {
      rows_[i].store(nullptr, std::memory_order_relaxed);
    }
  });
}

RouteSweeper& RoutingFunction::scratch_sweeper(
    ClosureRowScratch& scratch) const {
  if (scratch.sweeper_owner_ != this) {
    scratch.sweeper_ = std::make_unique<RouteSweeper>(*this);
    scratch.sweeper_owner_ = this;
    scratch.cached_dest_ = static_cast<std::size_t>(-1);
  }
  return *scratch.sweeper_;
}

const RoutingFunction::CompressedRow* RoutingFunction::compressed_row(
    std::size_t dest_index, ClosureRowScratch* scratch) const {
  ensure_rows_allocated();
  std::atomic<CompressedRow*>& slot = rows_[dest_index];
  CompressedRow* row = slot.load(std::memory_order_acquire);
  if (row != nullptr) {
    return row;
  }
  std::unique_ptr<RouteSweeper> local;
  RouteSweeper* sweeper = nullptr;
  if (scratch != nullptr) {
    sweeper = &scratch_sweeper(*scratch);
  } else {
    local = std::make_unique<RouteSweeper>(*this);
    sweeper = local.get();
  }
  auto fresh = std::make_unique<CompressedRow>();
  fresh->words.assign(closure_row_words(), 0);
  sweeper->sweep(dest_index, nullptr, fresh->words.data());
  const std::uint64_t bytes = fresh->bytes();
  CompressedRow* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_release,
                                   std::memory_order_acquire)) {
    note_row_built(bytes);
    return fresh.release();
  }
  return expected;  // another thread won the race; ours is freed here
}

bool RoutingFunction::closure_reachable_id(PortId s,
                                           std::size_t dest_index) const {
  if (node_tier()) {
    return node_mask_reachable(s, dest_index);
  }
  return row_bit(compressed_row(dest_index, nullptr)->words.data(), s);
}

const std::uint64_t* RoutingFunction::closure_row(
    std::size_t dest_index, ClosureRowScratch& scratch) const {
  if (!node_tier()) {
    return compressed_row(dest_index, &scratch)->words.data();
  }
  RouteSweeper& sweeper = scratch_sweeper(scratch);
  const std::size_t words = closure_row_words();
  if (scratch.cached_dest_ == dest_index && scratch.words_.size() == words) {
    return scratch.words_.data();
  }
  scratch.words_.assign(words, 0);
  sweeper.sweep(dest_index, nullptr, scratch.words_.data());
  scratch.cached_dest_ = dest_index;
  rows_built_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& rows =
      obs::MetricsRegistry::global().counter("closure.rows_built");
  rows.increment();
  return scratch.words_.data();
}

OutMaskHistograms::OutMaskHistograms(const RoutingFunction& routing)
    : routing_(&routing) {}

OutMaskHistograms::~OutMaskHistograms() {
  if (slots_ != nullptr) {
    for (std::size_t node = 0; node < routing_->topology().node_count();
         ++node) {
      delete slots_[node].load(std::memory_order_relaxed);
    }
  }
}

const OutMaskHistogram& OutMaskHistograms::at(std::size_t node) const {
  GENOC_REQUIRE(routing_->node_uniform() && routing_->grid() != nullptr,
                "out-mask histograms need a node-uniform grid routing");
  const Topology& topo = routing_->topology();
  std::call_once(slots_once_, [&] {
    slots_ = std::make_unique<std::atomic<OutMaskHistogram*>[]>(
        topo.node_count());
    for (std::size_t i = 0; i < topo.node_count(); ++i) {
      slots_[i].store(nullptr, std::memory_order_relaxed);
    }
  });
  std::atomic<OutMaskHistogram*>& slot = slots_[node];
  if (OutMaskHistogram* built = slot.load(std::memory_order_acquire)) {
    return *built;
  }
  auto fresh = std::make_unique<OutMaskHistogram>();
  fresh->fill(0);
  for (std::size_t d = 0; d < topo.destination_count(); ++d) {
    if (topo.node_of(topo.destination_id(d)) == node) {
      continue;
    }
    const std::uint64_t mask = routing_->out_mask_id(node, d);
    GENOC_ASSERT(mask < fresh->size(), "a grid out mask spans five names");
    ++(*fresh)[mask];
  }
  OutMaskHistogram* expected = nullptr;
  if (slot.compare_exchange_strong(expected, fresh.get(),
                                   std::memory_order_release,
                                   std::memory_order_acquire)) {
    return *fresh.release();
  }
  return *expected;  // another thread won the race; ours is freed here
}

}  // namespace genoc
