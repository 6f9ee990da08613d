/// \file fig1_topology.cpp
/// \brief Reproduction of Fig. 1: the HERMES 2D mesh and its node/port/
///        buffer structure, across mesh sizes.
///
/// Fig. 1a is the 2D mesh of switches; Fig. 1b the node with five
/// bidirectional ports and per-port buffers. The report prints the port
/// inventory (with boundary pruning) per size; the benchmarks measure mesh
/// construction and port-id lookup.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "topology/mesh.hpp"
#include "util/table.hpp"

namespace {

void print_report() {
  std::cout << "=== Fig. 1 reproduction: HERMES topology inventory ===\n\n";
  genoc::Table table({"Mesh", "Nodes", "Ports", "Interior node ports",
                      "Corner node ports", "Links", "Buffers (2/port)"});
  for (const auto& [w, h] : {std::pair{2, 2}, std::pair{3, 3}, std::pair{4, 4},
                            std::pair{8, 8}, std::pair{16, 16}}) {
    const genoc::Mesh2D mesh(w, h);
    std::size_t corner_ports = 0;
    std::size_t interior_ports = 0;
    const std::size_t interior = static_cast<std::size_t>(w) + 1;  // (1,1)
    for (genoc::PortId pid = 0; pid < mesh.port_count(); ++pid) {
      corner_ports += mesh.node_of(pid) == 0 ? 1 : 0;
      interior_ports += mesh.node_of(pid) == interior ? 1 : 0;
    }
    const std::size_t links = static_cast<std::size_t>(w) * (h - 1) +
                              static_cast<std::size_t>(w - 1) * h;
    table.add_row({std::to_string(w) + "x" + std::to_string(h),
                   genoc::format_count(mesh.node_count()),
                   genoc::format_count(mesh.port_count()),
                   std::to_string(interior_ports),
                   std::to_string(corner_ports),
                   genoc::format_count(links),
                   genoc::format_count(2 * mesh.port_count())});
  }
  std::cout << table.render()
            << "\nInterior nodes expose all 10 ports (5 names x IN/OUT, "
               "Fig. 1b); corner switches prune the off-mesh links to 6.\n\n";
}

void BM_MeshConstruction(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    const genoc::Mesh2D mesh(side, side);
    benchmark::DoNotOptimize(mesh.port_count());
  }
  state.SetComplexityN(state.range(0) * state.range(0));
}
BENCHMARK(BM_MeshConstruction)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity(benchmark::oN);

void BM_PortIdLookup(benchmark::State& state) {
  const genoc::Mesh2D mesh(16, 16);
  std::vector<genoc::Port> ports;
  for (genoc::PortId pid = 0; pid < mesh.port_count(); ++pid) {
    ports.push_back(mesh.port(pid));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh.id(ports[i % ports.size()]));
    ++i;
  }
}
BENCHMARK(BM_PortIdLookup);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
