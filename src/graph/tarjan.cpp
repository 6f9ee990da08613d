#include "graph/tarjan.hpp"

#include <algorithm>
#include <limits>

#include "util/require.hpp"

namespace genoc {

SccResult tarjan_scc(const Digraph& graph) {
  GENOC_REQUIRE(graph.finalized(), "tarjan_scc requires a finalized graph");
  const std::size_t n = graph.vertex_count();
  constexpr std::size_t kUnvisited = std::numeric_limits<std::size_t>::max();

  SccResult result;
  result.component.assign(n, kUnvisited);

  std::vector<std::size_t> index(n, kUnvisited);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> scc_stack;
  std::size_t next_index = 0;

  struct Frame {
    std::size_t vertex;
    std::size_t next_child;
  };
  std::vector<Frame> call_stack;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) {
      continue;
    }
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::size_t v = frame.vertex;
      const auto succ = graph.out(v);
      if (frame.next_child < succ.size()) {
        const std::size_t w = succ[frame.next_child++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          std::vector<std::size_t> comp;
          for (;;) {
            const std::size_t w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            result.component[w] = result.components.size();
            comp.push_back(w);
            if (w == v) {
              break;
            }
          }
          std::sort(comp.begin(), comp.end());
          result.components.push_back(std::move(comp));
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const std::size_t parent = call_stack.back().vertex;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  return result;
}

bool has_nontrivial_scc(const Digraph& graph) {
  const SccResult scc = tarjan_scc(graph);
  for (const auto& comp : scc.components) {
    if (comp.size() >= 2) {
      return true;
    }
    if (graph.has_edge(comp.front(), comp.front())) {
      return true;  // self-loop
    }
  }
  return false;
}

Digraph condensation(const Digraph& graph, const SccResult& scc) {
  GENOC_REQUIRE(scc.component.size() == graph.vertex_count(),
                "SCC result does not match graph");
  Digraph dag(scc.components.size());
  for (const auto& [from, to] : graph.edges()) {
    const std::size_t cf = scc.component[from];
    const std::size_t ct = scc.component[to];
    if (cf != ct) {
      dag.add_edge(cf, ct);
    }
  }
  dag.finalize();
  return dag;
}

}  // namespace genoc
