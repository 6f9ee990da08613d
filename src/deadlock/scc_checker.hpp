/// \file scc_checker.hpp
/// \brief Taktak-style deadlock detection via strongly connected components
///        (paper Sec. VIII: "This work focuses on deadlock detection and
///        first extracts the strongly connected components of the
///        dependency graph. Then, it looks for cycles between these
///        components.").
///
/// For deterministic routing, a non-trivial SCC is equivalent to a cycle,
/// so this analyzer is an alternative (C-3) discharge strategy; for the
/// adaptive extensions it additionally reports *where* the cyclic
/// dependencies concentrate and samples concrete cycles from each
/// component for the witness builder.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"

namespace genoc {

/// Result of the SCC-based dependency analysis.
struct SccAnalysis {
  std::size_t scc_count = 0;
  std::size_t nontrivial_scc_count = 0;
  std::size_t largest_scc_size = 0;
  /// Ports involved in some non-trivial SCC (cyclically dependent ports).
  std::size_t ports_in_cycles = 0;
  /// Verdict: true iff no non-trivial SCC exists (graph acyclic).
  bool deadlock_free = false;
  /// Up to max_cycles sample cycles, each drawn from a non-trivial SCC.
  std::vector<CycleWitness> sample_cycles;
  double cpu_ms = 0.0;

  std::string summary() const;
};

/// Runs the analysis on a port dependency graph (sequential Tarjan),
/// sampling at most \p max_cycles concrete cycles across the non-trivial
/// components.
SccAnalysis analyze_dependencies(const PortDepGraph& dep,
                                 std::size_t max_cycles);

}  // namespace genoc
