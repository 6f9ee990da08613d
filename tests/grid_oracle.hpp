/// \file grid_oracle.hpp
/// \brief The enumerating grid build, kept as the test oracle of Mesh2D's
///        closed-form fill.
///
/// OracleGrid asks, for every (node, name, direction) in enumeration
/// order, whether the port physically exists — the node has a neighbour on
/// that side, or the dimension wraps, and no failed link names the port's
/// channel pair — adds it, then links every cardinal OUT port through the
/// paper's next_in(), wrapped, and a Port -> id map of its own. It shares
/// nothing with Mesh2D but the Topology seal, so tests compare the two
/// field by field. Built only into the test binaries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/mesh.hpp"
#include "topology/port.hpp"
#include "topology/topology.hpp"

namespace genoc {

class OracleGrid final : public Topology {
 public:
  /// The width x height grid with the given wraps minus \p failed_links,
  /// each of which must name an existing cardinal link.
  OracleGrid(std::int32_t width, std::int32_t height, bool wrap_x,
             bool wrap_y, const std::vector<LinkFault>& failed_links = {});

  std::string family() const override { return "oracle-grid"; }
  std::string node_label(std::size_t node) const override;
  /// The paper's "<x,y,P,D>" tuple of the port.
  std::string port_label(PortId pid) const override;

 private:
  std::int32_t width_;
};

}  // namespace genoc
