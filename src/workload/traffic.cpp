#include "workload/traffic.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace genoc {

namespace {

std::size_t index_of(const Mesh2D& mesh, NodeCoord node) {
  return static_cast<std::size_t>(node.y) *
             static_cast<std::size_t>(mesh.width()) +
         static_cast<std::size_t>(node.x);
}

NodeCoord random_node(const Mesh2D& mesh, Rng& rng) {
  return mesh.nodes()[static_cast<std::size_t>(rng.below(mesh.node_count()))];
}

}  // namespace

std::vector<TrafficPair> uniform_random_traffic(const Mesh2D& mesh,
                                                std::size_t count, Rng& rng,
                                                bool allow_self) {
  std::vector<TrafficPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const NodeCoord src = random_node(mesh, rng);
    const NodeCoord dst = random_node(mesh, rng);
    if (!allow_self && src == dst) {
      continue;
    }
    pairs.push_back(TrafficPair{src, dst});
  }
  return pairs;
}

std::vector<TrafficPair> transpose_traffic(const Mesh2D& mesh) {
  std::vector<TrafficPair> pairs;
  for (const NodeCoord node : mesh.nodes()) {
    const NodeCoord dst{node.y % mesh.width(), node.x % mesh.height()};
    if (dst != node) {
      pairs.push_back(TrafficPair{node, dst});
    }
  }
  return pairs;
}

std::vector<TrafficPair> bit_reversal_traffic(const Mesh2D& mesh) {
  const std::size_t n = mesh.node_count();
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) {
    ++bits;
  }
  std::vector<TrafficPair> pairs;
  for (const NodeCoord node : mesh.nodes()) {
    const std::size_t index = index_of(mesh, node);
    std::size_t reversed = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if ((index >> b) & 1U) {
        reversed |= std::size_t{1} << (bits - 1 - b);
      }
    }
    reversed %= n;
    const NodeCoord dst = mesh.nodes()[reversed];
    if (dst != node) {
      pairs.push_back(TrafficPair{node, dst});
    }
  }
  return pairs;
}

std::vector<TrafficPair> hotspot_traffic(const Mesh2D& mesh, std::size_t count,
                                         NodeCoord hotspot,
                                         double hotspot_fraction, Rng& rng) {
  GENOC_REQUIRE(mesh.contains_node(hotspot.x, hotspot.y),
                "hotspot outside mesh");
  GENOC_REQUIRE(hotspot_fraction >= 0.0 && hotspot_fraction <= 1.0,
                "hotspot fraction must be a probability");
  std::vector<TrafficPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    const NodeCoord src = random_node(mesh, rng);
    const NodeCoord dst =
        rng.chance(hotspot_fraction) ? hotspot : random_node(mesh, rng);
    if (src == dst) {
      continue;
    }
    pairs.push_back(TrafficPair{src, dst});
  }
  return pairs;
}

std::vector<TrafficPair> all_to_one_traffic(const Mesh2D& mesh,
                                            NodeCoord target) {
  GENOC_REQUIRE(mesh.contains_node(target.x, target.y), "target outside mesh");
  std::vector<TrafficPair> pairs;
  for (const NodeCoord node : mesh.nodes()) {
    if (node != target) {
      pairs.push_back(TrafficPair{node, target});
    }
  }
  return pairs;
}

std::vector<TrafficPair> one_to_all_traffic(const Mesh2D& mesh,
                                            NodeCoord source) {
  GENOC_REQUIRE(mesh.contains_node(source.x, source.y), "source outside mesh");
  std::vector<TrafficPair> pairs;
  for (const NodeCoord node : mesh.nodes()) {
    if (node != source) {
      pairs.push_back(TrafficPair{source, node});
    }
  }
  return pairs;
}

std::vector<TrafficPair> neighbor_traffic(const Mesh2D& mesh) {
  std::vector<TrafficPair> pairs;
  for (const NodeCoord node : mesh.nodes()) {
    const NodeCoord dst{(node.x + 1) % mesh.width(), node.y};
    if (dst != node) {
      pairs.push_back(TrafficPair{node, dst});
    }
  }
  return pairs;
}

std::vector<TrafficPair> permutation_traffic(const Mesh2D& mesh, Rng& rng) {
  const std::size_t n = mesh.node_count();
  const std::vector<std::size_t> perm = rng.permutation(n);
  std::vector<TrafficPair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    if (perm[i] != i) {
      pairs.push_back(TrafficPair{mesh.nodes()[i], mesh.nodes()[perm[i]]});
    }
  }
  return pairs;
}

std::vector<TrafficPair> ring_traffic(const Mesh2D& mesh, std::size_t stride) {
  GENOC_REQUIRE(stride >= 1, "ring stride must be positive");
  // Collect the perimeter clockwise starting at (0, 0).
  std::vector<NodeCoord> ring;
  const std::int32_t w = mesh.width();
  const std::int32_t h = mesh.height();
  for (std::int32_t x = 0; x < w; ++x) {
    ring.push_back(NodeCoord{x, 0});
  }
  for (std::int32_t y = 1; y < h; ++y) {
    ring.push_back(NodeCoord{w - 1, y});
  }
  if (h > 1) {
    for (std::int32_t x = w - 2; x >= 0; --x) {
      ring.push_back(NodeCoord{x, h - 1});
    }
  }
  if (w > 1) {
    for (std::int32_t y = h - 2; y >= 1; --y) {
      ring.push_back(NodeCoord{0, y});
    }
  }
  std::vector<TrafficPair> pairs;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const NodeCoord dst = ring[(i + stride) % ring.size()];
    if (dst != ring[i]) {
      pairs.push_back(TrafficPair{ring[i], dst});
    }
  }
  return pairs;
}

const char* traffic_pattern_name(TrafficPattern pattern) {
  switch (pattern) {
    case TrafficPattern::kUniformRandom:
      return "uniform-random";
    case TrafficPattern::kTranspose:
      return "transpose";
    case TrafficPattern::kBitReversal:
      return "bit-reversal";
    case TrafficPattern::kHotspot:
      return "hotspot";
    case TrafficPattern::kAllToOne:
      return "all-to-one";
    case TrafficPattern::kNeighbor:
      return "neighbor";
    case TrafficPattern::kPermutation:
      return "permutation";
    case TrafficPattern::kRing:
      return "ring";
  }
  return "?";
}

std::optional<TrafficPattern> parse_traffic_pattern(const std::string& name) {
  std::string canon = name;
  std::replace(canon.begin(), canon.end(), '_', '-');
  if (canon == "uniform" || canon == "bitrev") {
    canon = canon == "uniform" ? "uniform-random" : "bit-reversal";
  }
  for (const TrafficPattern pattern :
       {TrafficPattern::kUniformRandom, TrafficPattern::kTranspose,
        TrafficPattern::kBitReversal, TrafficPattern::kHotspot,
        TrafficPattern::kAllToOne, TrafficPattern::kNeighbor,
        TrafficPattern::kPermutation, TrafficPattern::kRing}) {
    if (canon == traffic_pattern_name(pattern)) {
      return pattern;
    }
  }
  return std::nullopt;
}

std::vector<TrafficPair> generate_traffic(TrafficPattern pattern,
                                          const Mesh2D& mesh,
                                          std::size_t count, Rng& rng) {
  const NodeCoord centre{mesh.width() / 2, mesh.height() / 2};
  switch (pattern) {
    case TrafficPattern::kUniformRandom:
      return uniform_random_traffic(mesh, count, rng);
    case TrafficPattern::kTranspose:
      return transpose_traffic(mesh);
    case TrafficPattern::kBitReversal:
      return bit_reversal_traffic(mesh);
    case TrafficPattern::kHotspot:
      return hotspot_traffic(mesh, count, centre, 0.5, rng);
    case TrafficPattern::kAllToOne:
      return all_to_one_traffic(mesh, centre);
    case TrafficPattern::kNeighbor:
      return neighbor_traffic(mesh);
    case TrafficPattern::kPermutation:
      return permutation_traffic(mesh, rng);
    case TrafficPattern::kRing:
      return ring_traffic(mesh, std::max<std::size_t>(1, mesh.node_count() / 4));
  }
  GENOC_REQUIRE(false, "unknown traffic pattern");
}

}  // namespace genoc
