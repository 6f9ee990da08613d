/// \file depgraph_export.cpp
/// \brief Reproduce Fig. 3 for any registered instance: build its port
///        dependency graph and emit Graphviz DOT (to stdout or a file).
///        For XY-on-mesh instances the paper's closed-form Exy_dep is
///        cross-checked against the generic construction and the Fig. 4
///        flow decomposition is printed.
///
/// Usage: depgraph_export [instance-or-spec] [dot-file]
///   e.g. depgraph_export hermes fig3.dot
///        depgraph_export "topology=torus size=4x4 routing=torus_xy"
///
/// Render with: dot -Tpdf fig3.dot -o fig3.pdf
#include <fstream>
#include <iostream>
#include <string>

#include "deadlock/flows.hpp"
#include "graph/cycle.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "hermes";

  std::string error;
  const auto spec = genoc::InstanceRegistry::global().resolve(which, &error);
  if (!spec) {
    std::cerr << "depgraph_export: " << error << "\n";
    return 2;
  }
  const genoc::NetworkInstance network(*spec);
  const genoc::PortDepGraph& dep =
      network.context().dep_graph(false, nullptr);

  std::cout << "Port dependency graph of " << network.name() << " ("
            << network.routing().name() << " on " << spec->topology << " "
            << spec->width << "x" << spec->height << "):\n"
            << "  " << dep.graph.vertex_count() << " ports, "
            << dep.graph.edge_count() << " dependency edges, "
            << (genoc::is_acyclic(dep.graph) ? "acyclic" : "CYCLIC") << "\n\n";

  if (spec->routing == "xy" && spec->topology == "mesh") {
    // The paper's closed form exists for this family: cross-check it and
    // show the Fig. 4 flow structure.
    const genoc::PortDepGraph closed = genoc::build_exy_dep(network.mesh());
    std::cout << "Closed-form Exy_dep agrees with the generic construction: "
              << (closed.graph.edges() == dep.graph.edges() ? "yes"
                                                            : "NO (BUG)")
              << "\n";
    const genoc::FlowDecomposition flows = genoc::decompose_flows(dep);
    std::cout << "Flow decomposition (paper Fig. 4):\n  " << flows.summary()
              << "\n";
    std::cout << "Flow certificate (closed-form rank strictly increasing "
                 "along every edge): "
              << (genoc::verify_flow_certificate(dep) ? "VALID — (C-3) holds"
                                                      : "INVALID")
              << "\n";
  }

  const std::string dot = dep.to_dot("dep_graph");
  if (argc > 2) {
    std::ofstream out(argv[2]);
    out << dot;
    std::cout << "\nDOT written to " << argv[2] << " (render with: dot -Tpdf "
              << argv[2] << " -o fig3.pdf)\n";
  } else {
    std::cout << "\n" << dot;
  }
  return 0;
}
