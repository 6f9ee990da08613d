#include "sim/render.hpp"

#include <sstream>
#include <vector>

#include "util/require.hpp"

namespace genoc {

std::string render_occupancy(const NetworkState& state) {
  const Mesh2D& mesh = state.mesh();
  std::vector<std::size_t> flits(mesh.node_count(), 0);
  std::vector<char> any_full(mesh.node_count(), 0);
  for (PortId pid = 0; pid < mesh.port_count(); ++pid) {
    flits[mesh.node_of(pid)] += state.occupancy(pid);
    any_full[mesh.node_of(pid)] |= state.port_full(pid) ? 1 : 0;
  }
  std::ostringstream os;
  std::size_t node = 0;
  for (std::int32_t y = 0; y < mesh.height(); ++y) {
    for (std::int32_t x = 0; x < mesh.width(); ++x, ++node) {
      std::string cell = flits[node] == 0 ? "." : std::to_string(flits[node]);
      if (any_full[node] != 0) {
        cell += '*';
      }
      os << cell << std::string(cell.size() < 5 ? 5 - cell.size() : 1, ' ');
    }
    os << '\n';
  }
  return os.str();
}

std::string render_packet(const NetworkState& state, TravelId id) {
  const PacketSpec& spec = state.packet(id);
  // Mark, per route index, which flit(s) sit there.
  std::vector<char> marks(spec.route.size(), '.');
  std::size_t outside = 0;
  std::size_t delivered = 0;
  for (std::uint32_t k = 0; k < spec.flit_count; ++k) {
    const std::int32_t pos = state.flit_pos(id, k);
    if (pos == kFlitOutside) {
      ++outside;
    } else if (pos == kFlitDelivered) {
      ++delivered;
    } else if (k == 0) {
      marks[static_cast<std::size_t>(pos)] = 'H';
    } else if (marks[static_cast<std::size_t>(pos)] == '.') {
      // Body flits never overwrite the header marker when several flits of
      // the worm share one multi-buffer port.
      marks[static_cast<std::size_t>(pos)] = 'o';
    }
  }
  std::ostringstream os;
  os << "travel " << id << " [" << outside << " outside, " << delivered
     << " delivered]: ";
  for (std::size_t i = 0; i < spec.route.size(); ++i) {
    os << marks[i] << to_string(spec.route[i]);
    if (i + 1 < spec.route.size()) {
      os << " -> ";
    }
  }
  return os.str();
}

}  // namespace genoc
