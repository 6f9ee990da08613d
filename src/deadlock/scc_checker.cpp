#include "deadlock/scc_checker.hpp"

#include <algorithm>
#include <sstream>

#include "graph/johnson.hpp"
#include "graph/tarjan.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"

namespace genoc {

std::string SccAnalysis::summary() const {
  std::ostringstream os;
  os << (deadlock_free ? "deadlock-free" : "CYCLIC") << ": " << scc_count
     << " SCCs, " << nontrivial_scc_count << " non-trivial (largest "
     << largest_scc_size << " ports, " << ports_in_cycles
     << " ports cyclically dependent), " << sample_cycles.size()
     << " sample cycles, " << cpu_ms << " ms";
  return os.str();
}

SccAnalysis analyze_dependencies(const PortDepGraph& dep,
                                 std::size_t max_cycles) {
  GENOC_REQUIRE(dep.mesh != nullptr, "uninitialized dependency graph");
  Stopwatch timer;
  SccAnalysis result;

  const SccResult scc = tarjan_scc(dep.graph);
  result.scc_count = scc.components.size();
  for (const auto& comp : scc.components) {
    const bool nontrivial =
        comp.size() >= 2 || dep.graph.has_edge(comp.front(), comp.front());
    if (!nontrivial) {
      continue;
    }
    ++result.nontrivial_scc_count;
    result.largest_scc_size = std::max(result.largest_scc_size, comp.size());
    result.ports_in_cycles += comp.size();

    if (result.sample_cycles.size() < max_cycles) {
      // Sample cycles from this component only: induce the subgraph and
      // enumerate a few simple cycles.
      std::vector<std::uint8_t> keep(dep.graph.vertex_count(), 0);
      for (const std::size_t v : comp) {
        keep[v] = 1;
      }
      const Digraph sub = dep.graph.induced(keep);
      const std::size_t budget = max_cycles - result.sample_cycles.size();
      for (CycleWitness& cycle : enumerate_cycles(sub, budget)) {
        result.sample_cycles.push_back(std::move(cycle));
      }
    }
  }
  result.deadlock_free = (result.nontrivial_scc_count == 0);
  result.cpu_ms = timer.elapsed_ms();
  return result;
}

}  // namespace genoc
