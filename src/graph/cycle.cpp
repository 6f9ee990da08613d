#include "graph/cycle.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace genoc {

namespace {
enum class Colour : unsigned char { kWhite, kGrey, kBlack };
}  // namespace

std::optional<CycleWitness> find_cycle(const Digraph& graph,
                                       std::vector<std::int64_t>* rank) {
  GENOC_REQUIRE(graph.finalized(), "find_cycle requires a finalized graph");
  const std::size_t n = graph.vertex_count();
  std::vector<Colour> colour(n, Colour::kWhite);
  if (rank != nullptr) {
    rank->assign(n, 0);
  }
  auto next_rank = static_cast<std::int64_t>(n);

  // Iterative DFS keeping the grey path explicitly so the cycle can be
  // reconstructed without parent pointers.
  struct Frame {
    std::size_t vertex;
    std::size_t next_child;
  };
  std::vector<Frame> stack;
  std::vector<std::size_t> path;  // grey vertices, in DFS order
  std::vector<std::size_t> pos_in_path(n, 0);

  for (std::size_t root = 0; root < n; ++root) {
    if (colour[root] != Colour::kWhite) {
      continue;
    }
    stack.push_back({root, 0});
    colour[root] = Colour::kGrey;
    pos_in_path[root] = path.size();
    path.push_back(root);

    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto succ = graph.out(frame.vertex);
      if (frame.next_child < succ.size()) {
        const std::size_t child = succ[frame.next_child++];
        if (colour[child] == Colour::kGrey) {
          // Found a back edge: the cycle is the grey path suffix from child.
          CycleWitness cycle(path.begin() +
                                 static_cast<std::ptrdiff_t>(pos_in_path[child]),
                             path.end());
          return cycle;
        }
        if (colour[child] == Colour::kWhite) {
          colour[child] = Colour::kGrey;
          pos_in_path[child] = path.size();
          path.push_back(child);
          stack.push_back({child, 0});
        }
      } else {
        colour[frame.vertex] = Colour::kBlack;
        if (rank != nullptr) {
          (*rank)[frame.vertex] = --next_rank;  // reverse finish order
        }
        path.pop_back();
        stack.pop_back();
      }
    }
  }
  return std::nullopt;
}

bool is_valid_cycle(const Digraph& graph, const CycleWitness& cycle) {
  if (!graph.finalized() || cycle.empty()) {
    return false;
  }
  for (std::size_t v : cycle) {
    if (v >= graph.vertex_count()) {
      return false;
    }
  }
  // Distinctness.
  CycleWitness sorted = cycle;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return false;
  }
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const std::size_t from = cycle[i];
    const std::size_t to = cycle[(i + 1) % cycle.size()];
    if (!graph.has_edge(from, to)) {
      return false;
    }
  }
  return true;
}

bool is_acyclic(const Digraph& graph) { return !find_cycle(graph).has_value(); }

}  // namespace genoc
