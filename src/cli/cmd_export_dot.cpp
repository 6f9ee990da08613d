/// \file cmd_export_dot.cpp
/// \brief `genoc export-dot` — emit the port dependency graph `genoc verify`
///        decides as Graphviz DOT: by default the XY mesh of --width x
///        --height, whose graph is the paper's closed-form Exy_dep (Fig. 3);
///        with --instance, any registered instance or ad-hoc spec.
#include <cctype>
#include <fstream>
#include <iostream>
#include <optional>

#include "cli/commands.hpp"
#include "instance/registry.hpp"
#include "verify/artifacts.hpp"

namespace genoc::cli {

namespace {

constexpr const char* kUsage =
    "Usage: genoc export-dot [options]\n"
    "  --instance X  dump the dependency graph of a registered instance\n"
    "                (see `genoc list`) or of an ad-hoc key=value spec;\n"
    "                overrides --width/--height\n"
    "  --width N     mesh width (default 2)\n"
    "  --height N    mesh height (default 2)\n"
    "  --name NAME   graph name in the DOT output (default exy_dep, or the\n"
    "                instance name)\n"
    "  --out FILE    write to FILE instead of stdout\n";

/// DOT identifiers admit [A-Za-z0-9_] without quoting; instance names like
/// "torus8-xy" are mangled to stay directly renderable.
std::string dot_identifier(const std::string& name) {
  std::string id;
  for (const char c : name) {
    id += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return id.empty() || std::isdigit(static_cast<unsigned char>(id.front())) != 0
             ? "dep_" + id
             : id;
}

}  // namespace

int cmd_export_dot(const Args& args) {
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string instance = args.get("instance", "");
  const auto width =
      static_cast<std::int32_t>(args.get_int_in("width", 2, 2, 512));
  const auto height =
      static_cast<std::int32_t>(args.get_int_in("height", 2, 2, 512));
  const std::string name = args.get("name", "");
  const std::string out_path = args.get("out", "");
  if (const int rc = finish_args(args, kUsage)) {
    return rc;
  }

  // Both modes draw the graph `genoc verify` decides, from one context:
  // --instance's spec, or by default the paper's XY mesh, whose decided
  // graph is the closed-form Exy_dep (Fig. 3).
  InstanceSpec spec;
  std::string graph_name = name;
  if (!instance.empty()) {
    std::string error;
    const std::optional<InstanceSpec> resolved =
        InstanceRegistry::global().resolve(instance, &error);
    if (!resolved) {
      std::cerr << "genoc export-dot: " << error << "\n";
      return 2;
    }
    spec = *resolved;
    if (graph_name.empty()) {
      graph_name = dot_identifier(display_name(spec));
    }
  } else {
    spec.width = width;
    spec.height = height;
    spec.routing = "xy";
    if (graph_name.empty()) {
      graph_name = "exy_dep";
    }
  }
  AnalysisArtifacts context(spec);
  const PortDepGraph& dep = context.dep_graph(false, nullptr);
  const std::string dot = dep.to_dot(graph_name);

  if (out_path.empty()) {
    std::cout << dot;
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "genoc export-dot: cannot open '" << out_path
                << "' for writing\n";
      return 1;
    }
    out << dot;
    std::cerr << "Wrote " << dep.graph.vertex_count() << " vertices / "
              << dep.graph.edge_count() << " edges to " << out_path
              << " (render: dot -Tpdf " << out_path << " -o fig3.pdf)\n";
  }
  std::cerr << "Dependency graph is ";
  if (context.acyclicity(false, nullptr).acyclic) {
    std::cerr << "acyclic — deadlock-free (Theorem 1)\n";
  } else if (context.escape_routing() != nullptr) {
    // Ad-hoc specs hold spaces; quote them so the hint pastes as is.
    const std::string arg = instance.find(' ') == std::string::npos
                                ? instance
                                : "'" + instance + "'";
    std::cerr << "CYCLIC — the escape lane decides deadlock freedom (run "
                 "`genoc verify --instance "
              << arg << "`)\n";
  } else {
    std::cerr << "CYCLIC — deadlock possible\n";
  }
  return 0;
}

}  // namespace genoc::cli
