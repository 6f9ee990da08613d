/// \file ablation_cycle_algos.cpp
/// \brief Ablation A1: the paper's Sec. VII claim that on fixed instances
///        "a simple search for a cycle suffices … in linear time".
///
/// Compares the four (C-3) discharge strategies — DFS cycle search, Tarjan
/// SCC, Kahn toposort, and the closed-form flow certificate — across mesh
/// sizes, confirming they agree and all scale linearly in the number of
/// dependency edges.
#include <benchmark/benchmark.h>

#include <iostream>

#include "../tests/kahn.hpp"
#include "deadlock/depgraph.hpp"
#include "deadlock/flows.hpp"
#include "graph/cycle.hpp"
#include "graph/tarjan.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

void print_report() {
  std::cout << "=== Ablation A1: (C-3) discharge strategies ===\n\n";
  genoc::Table table({"Mesh", "Edges", "DFS ms", "Tarjan ms", "Kahn ms",
                      "FlowCert ms", "All agree (acyclic)"});
  for (const std::int32_t side : {4, 8, 16, 32, 64}) {
    const genoc::Mesh2D mesh(side, side);
    const genoc::PortDepGraph dep = genoc::build_exy_dep(mesh);

    genoc::Stopwatch sw;
    const bool dfs = genoc::is_acyclic(dep.graph);
    const double dfs_ms = sw.elapsed_ms();

    sw.reset();
    const bool tarjan = !genoc::has_nontrivial_scc(dep.graph);
    const double tarjan_ms = sw.elapsed_ms();

    sw.reset();
    const bool kahn = genoc::topological_order(dep.graph).has_value();
    const double kahn_ms = sw.elapsed_ms();

    sw.reset();
    const bool cert = genoc::verify_flow_certificate(dep);
    const double cert_ms = sw.elapsed_ms();

    table.add_row({std::to_string(side) + "x" + std::to_string(side),
                   genoc::format_count(dep.graph.edge_count()),
                   genoc::format_double(dfs_ms, 3),
                   genoc::format_double(tarjan_ms, 3),
                   genoc::format_double(kahn_ms, 3),
                   genoc::format_double(cert_ms, 3),
                   (dfs && tarjan && kahn && cert) ? "yes" : "NO"});
  }
  std::cout << table.render()
            << "\nAll four agree on every size; the flow certificate "
               "additionally certifies the verdict with a size-independent "
               "formula.\n\n";
}

template <bool (*Check)(const genoc::Digraph&)>
void run_check(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const genoc::Mesh2D mesh(side, side);
  const genoc::PortDepGraph dep = genoc::build_exy_dep(mesh);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Check(dep.graph));
  }
  state.SetComplexityN(static_cast<std::int64_t>(dep.graph.edge_count()));
}

bool check_dfs(const genoc::Digraph& g) { return genoc::is_acyclic(g); }
bool check_tarjan(const genoc::Digraph& g) {
  return !genoc::has_nontrivial_scc(g);
}
bool check_kahn(const genoc::Digraph& g) {
  return genoc::topological_order(g).has_value();
}

void BM_C3_Dfs(benchmark::State& state) { run_check<check_dfs>(state); }
void BM_C3_Tarjan(benchmark::State& state) { run_check<check_tarjan>(state); }
void BM_C3_Kahn(benchmark::State& state) { run_check<check_kahn>(state); }
void BM_C3_FlowCertificate(benchmark::State& state) {
  const auto side = static_cast<std::int32_t>(state.range(0));
  const genoc::Mesh2D mesh(side, side);
  const genoc::PortDepGraph dep = genoc::build_exy_dep(mesh);
  for (auto _ : state) {
    benchmark::DoNotOptimize(genoc::verify_flow_certificate(dep));
  }
  state.SetComplexityN(static_cast<std::int64_t>(dep.graph.edge_count()));
}

BENCHMARK(BM_C3_Dfs)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_C3_Tarjan)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_C3_Kahn)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity(benchmark::oN);
BENCHMARK(BM_C3_FlowCertificate)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity(benchmark::oN);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
