/// \file liveness_oracle.hpp
/// \brief The port-liveness BFS, kept as the test oracle of the topology
///        seal's liveness proof (Topology::finish_topology).
///
/// A port is live when it lies on some injection-to-ejection path of the
/// port graph: in-port -> every out-port of its node, out-port -> its link
/// target. port_liveness() decides that by two BFS over the relation it
/// rebuilds from the described ports alone (node, name, direction, link
/// target and the terminal names), so it shares nothing with the seal's
/// derived tables. Built only into the test binaries.
#pragma once

#include <cstddef>

#include "topology/topology.hpp"

namespace genoc {

struct PortLiveness {
  std::size_t unreachable = 0;  ///< ports no injection port reaches
  std::size_t dead_ends = 0;    ///< ports that reach no ejection port

  bool all_live() const { return unreachable == 0 && dead_ends == 0; }
};

/// Forward BFS from the terminal IN ports and backward BFS from the
/// terminal OUT ports over the port graph of \p topo. O(ports).
PortLiveness port_liveness(const Topology& topo);

}  // namespace genoc
