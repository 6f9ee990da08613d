#include "deadlock/flows.hpp"

#include <sstream>

#include "graph/toposort.hpp"
#include "util/require.hpp"

namespace genoc {

const char* flow_class_name(FlowClass flow) {
  switch (flow) {
    case FlowClass::kEastern:
      return "Eastern";
    case FlowClass::kWestern:
      return "Western";
    case FlowClass::kNorthern:
      return "Northern";
    case FlowClass::kSouthern:
      return "Southern";
    case FlowClass::kLocalSource:
      return "Local-source";
    case FlowClass::kLocalSink:
      return "Local-sink";
  }
  return "?";
}

FlowClass classify_flow(const Port& p) {
  switch (p.name) {
    case PortName::kLocal:
      return p.dir == Direction::kIn ? FlowClass::kLocalSource
                                     : FlowClass::kLocalSink;
    case PortName::kWest:
      // West-IN carries eastbound traffic; West-OUT carries westbound.
      return p.dir == Direction::kIn ? FlowClass::kEastern
                                     : FlowClass::kWestern;
    case PortName::kEast:
      return p.dir == Direction::kIn ? FlowClass::kWestern
                                     : FlowClass::kEastern;
    case PortName::kSouth:
      // South-IN carries northbound traffic (y decreasing): Northern flow.
      return p.dir == Direction::kIn ? FlowClass::kNorthern
                                     : FlowClass::kSouthern;
    case PortName::kNorth:
      return p.dir == Direction::kIn ? FlowClass::kSouthern
                                     : FlowClass::kNorthern;
  }
  return FlowClass::kLocalSink;
}

std::int64_t xy_flow_rank(const Mesh2D& mesh, const Port& p) {
  const std::int64_t width = mesh.width();
  const std::int64_t height = mesh.height();
  const std::int64_t vertical_base = 2 * width + 1;
  const std::int64_t out_bump = (p.dir == Direction::kOut) ? 1 : 0;
  switch (classify_flow(p)) {
    case FlowClass::kLocalSource:
      return 0;
    case FlowClass::kEastern:
      return 2 * static_cast<std::int64_t>(p.x) + out_bump;
    case FlowClass::kWestern:
      return 2 * (width - 1 - static_cast<std::int64_t>(p.x)) + out_bump;
    case FlowClass::kSouthern:
      return vertical_base + 2 * static_cast<std::int64_t>(p.y) + out_bump;
    case FlowClass::kNorthern:
      return vertical_base + 2 * (height - 1 - static_cast<std::int64_t>(p.y)) +
             out_bump;
    case FlowClass::kLocalSink:
      return vertical_base + 2 * height + 1;
  }
  GENOC_REQUIRE(false, "unreachable");
}

std::string FlowDecomposition::summary() const {
  std::ostringstream os;
  os << "flows:";
  for (int f = 0; f < 6; ++f) {
    os << ' ' << flow_class_name(static_cast<FlowClass>(f)) << '='
       << ports_per_flow[f];
  }
  os << "; intra-flow edges=" << intra_flow_edges
     << ", horizontal->vertical escapes=" << horizontal_to_vertical
     << ", local-sink escapes=" << into_local_sink
     << ", source edges=" << out_of_local_source
     << ", violations=" << violating_edges;
  return os.str();
}

namespace {

bool is_horizontal(FlowClass f) {
  return f == FlowClass::kEastern || f == FlowClass::kWestern;
}

bool is_vertical(FlowClass f) {
  return f == FlowClass::kNorthern || f == FlowClass::kSouthern;
}

}  // namespace

FlowDecomposition decompose_flows(const PortDepGraph& dep) {
  GENOC_REQUIRE(dep.mesh != nullptr, "uninitialized dependency graph");
  FlowDecomposition result;
  for (PortId pid = 0; pid < dep.mesh->port_count(); ++pid) {
    ++result.ports_per_flow[static_cast<int>(classify_flow(dep.port_of(pid)))];
  }
  for (const auto& [from, to] : dep.graph.edges()) {
    const FlowClass a = classify_flow(dep.port_of(from));
    const FlowClass b = classify_flow(dep.port_of(to));
    if (a == FlowClass::kLocalSource) {
      ++result.out_of_local_source;
    } else if (b == FlowClass::kLocalSink) {
      ++result.into_local_sink;
    } else if (a == b && a != FlowClass::kLocalSink) {
      ++result.intra_flow_edges;
    } else if (is_horizontal(a) && is_vertical(b)) {
      ++result.horizontal_to_vertical;
    } else {
      // Anything else (vertical->horizontal, flow reversal, edges out of a
      // sink) breaks the flow discipline.
      ++result.violating_edges;
    }
  }
  return result;
}

std::int64_t yx_flow_rank(const Mesh2D& mesh, const Port& p) {
  const std::int64_t width = mesh.width();
  const std::int64_t height = mesh.height();
  // Mirror of xy_flow_rank: the vertical flows are phase 1, the horizontal
  // flows phase 2 (offset past every vertical rank), Local OUT last.
  const std::int64_t horizontal_base = 2 * height + 1;
  const std::int64_t out_bump = (p.dir == Direction::kOut) ? 1 : 0;
  switch (classify_flow(p)) {
    case FlowClass::kLocalSource:
      return 0;
    case FlowClass::kSouthern:
      return 2 * static_cast<std::int64_t>(p.y) + out_bump;
    case FlowClass::kNorthern:
      return 2 * (height - 1 - static_cast<std::int64_t>(p.y)) + out_bump;
    case FlowClass::kEastern:
      return horizontal_base + 2 * static_cast<std::int64_t>(p.x) + out_bump;
    case FlowClass::kWestern:
      return horizontal_base + 2 * (width - 1 - static_cast<std::int64_t>(p.x)) +
             out_bump;
    case FlowClass::kLocalSink:
      return horizontal_base + 2 * width + 1;
  }
  GENOC_REQUIRE(false, "unreachable");
}

bool verify_flow_certificate(const PortDepGraph& dep) {
  return verify_flow_certificate(dep, &xy_flow_rank);
}

bool verify_flow_certificate(const PortDepGraph& dep, FlowRank rank_fn) {
  GENOC_REQUIRE(dep.mesh != nullptr, "uninitialized dependency graph");
  GENOC_REQUIRE(rank_fn != nullptr, "a rank function is required");
  std::vector<std::int64_t> rank(dep.graph.vertex_count());
  for (std::size_t v = 0; v < rank.size(); ++v) {
    rank[v] = rank_fn(*dep.mesh, dep.port_of(v));
  }
  return verify_rank_certificate(dep.graph, rank);
}

}  // namespace genoc
