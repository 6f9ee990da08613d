// The tiered reachability closure against its dense oracle.
//
// Both tiers — the node-granular closed form of node-uniform functions
// and the lazily built bitset rows of port-mode functions — must be
// BIT-IDENTICAL to the dense bitset (built here, one port-mode
// RouteSweeper sweep per destination row), per destination row and per
// membership query, on every registry preset; stored rows built by
// concurrent first touches at 1, 4 and 8 threads must be too, each built
// once; and the node tier must realize the >= 4x memory reduction over the
// dense layout that retired it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "instance/batch_runner.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "routing/odd_even.hpp"
#include "routing/routing.hpp"
#include "routing/sweep.hpp"
#include "routing/west_first.hpp"
#include "topology/mesh.hpp"

namespace genoc {
namespace {

/// The dense closure oracle: every destination row swept into one flat
/// dests x row-words bitset by the generic port-level BFS, which shares no
/// storage or membership logic with the tiers.
std::vector<std::uint64_t> dense_closure(const RoutingFunction& routing) {
  const std::size_t words = routing.closure_row_words();
  const std::size_t dests = routing.topology().destination_count();
  std::vector<std::uint64_t> rows(dests * words, 0);
  RouteSweeper sweeper(routing);
  sweeper.force_port_mode();
  for (std::size_t dest = 0; dest < dests; ++dest) {
    sweeper.sweep(dest, nullptr, rows.data() + dest * words);
  }
  return rows;
}

/// A fresh \p tier against the dense oracle: every membership answer on
/// the first/middle/last destinations (so a stored row's first touch there
/// comes through the scratch-less query), then every row.
void expect_matches_dense(const RoutingFunction& tier,
                          const std::vector<std::uint64_t>& dense) {
  const std::size_t words = tier.closure_row_words();
  const std::size_t dests = tier.topology().destination_count();
  ASSERT_EQ(dense.size(), dests * words);
  const std::size_t ports = tier.topology().port_count();
  for (const std::size_t dest :
       {std::size_t{0}, dests / 2, dests - 1}) {
    const std::uint64_t* row = dense.data() + dest * words;
    for (PortId p = 0; p < ports; ++p) {
      ASSERT_EQ(tier.closure_reachable_id(p, dest),
                ((row[p >> 6] >> (p & 63)) & 1u) != 0)
          << "port " << p << " destination " << dest;
    }
  }
  ClosureRowScratch scratch;
  for (std::size_t dest = 0; dest < dests; ++dest) {
    ASSERT_EQ(0, std::memcmp(tier.closure_row(dest, scratch),
                             dense.data() + dest * words,
                             words * sizeof(std::uint64_t)))
        << "destination " << dest;
  }
}

TEST(ClosureCompressed, EveryTierMatchesDenseOnEverySmallPreset) {
  // Node-uniform presets land on the node tier, mesh16-oddeven (port mode)
  // on stored rows; both must be seen for the test to cover both tiers.
  std::size_t node_tier = 0;
  std::size_t stored_rows = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.node_count() > 1024) {
      continue;  // 32x32 and the non-grid families cover every tier
    }
    SCOPED_TRACE(spec.name);
    const NetworkInstance instance(spec);
    const std::vector<std::uint64_t> dense = dense_closure(instance.routing());
    const auto fresh = make_routing(spec.routing, instance.topology());
    expect_matches_dense(*fresh, dense);
    if (fresh->node_uniform()) {
      ++node_tier;
      EXPECT_EQ(fresh->closure_bytes(), 0u);
    } else {
      ++stored_rows;
      EXPECT_EQ(fresh->closure_rows_built(),
                instance.topology().destination_count());
    }
  }
  EXPECT_GT(node_tier, 0u);
  EXPECT_GT(stored_rows, 0u);
}

TEST(ClosureCompressed, ConcurrentFirstTouchMatchesDenseAcrossThreadCounts) {
  // Odd-Even is the port-mode function, so its rows are stored: built on
  // first touch and published by compare-and-swap. Shards of a pool, one
  // scratch each, touch every destination twice (indices d and d + dests
  // land in different shards); every row must equal the dense oracle and
  // be built exactly once, at every pool size.
  const Mesh2D mesh(16, 16);
  const std::vector<std::uint64_t> dense = dense_closure(OddEvenRouting(mesh));
  const std::size_t dests = mesh.destination_count();
  const std::size_t words = (mesh.port_count() + 63) / 64;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    BatchRunner pool(threads);
    const OddEvenRouting routing(mesh);
    std::vector<std::uint64_t> seen(2 * dests * words, 0);
    pool.parallel_for(2 * dests, pool.recommended_grain(2 * dests),
                      [&](std::size_t begin, std::size_t end) {
                        ClosureRowScratch scratch;
                        for (std::size_t i = begin; i < end; ++i) {
                          const std::uint64_t* row =
                              routing.closure_row(i % dests, scratch);
                          std::copy(row, row + words,
                                    seen.data() + i * words);
                        }
                      });
    EXPECT_EQ(routing.closure_rows_built(), dests);
    for (std::size_t i = 0; i < 2 * dests; ++i) {
      ASSERT_EQ(0, std::memcmp(seen.data() + i * words,
                               dense.data() + (i % dests) * words,
                               words * sizeof(std::uint64_t)))
          << "touch " << i << " of destination " << i % dests;
    }
  }
}

TEST(ClosureCompressed, NodeTierMeetsFourTimesMemoryBarAt128) {
  // The headline memory win: on the 128x128 mesh the node-granular tier
  // stores nothing, against the ~168 MB the dense layout allocated —
  // trivially past the >= 4x acceptance bar, asserted in the
  // closure_bytes() terms the `closure.bytes` gauge reports.
  const Mesh2D mesh(128, 128);
  const WestFirstRouting routing(mesh);
  ASSERT_TRUE(routing.node_uniform());
  const std::uint64_t dense = static_cast<std::uint64_t>(
                                  mesh.destination_count()) *
                              routing.closure_row_words() *
                              sizeof(std::uint64_t);
  EXPECT_GT(dense, 100u * 1024 * 1024);
  EXPECT_EQ(routing.closure_bytes(), 0u);
  // Touch rows through a scratch: the tier must stay storage-free.
  ClosureRowScratch scratch;
  for (const std::size_t dest : {std::size_t{0}, std::size_t{8191}}) {
    ASSERT_NE(routing.closure_row(dest, scratch), nullptr);
  }
  EXPECT_EQ(routing.closure_bytes(), 0u);
  EXPECT_GE(dense, 4 * std::max<std::uint64_t>(routing.closure_bytes(), 1));
}

}  // namespace
}  // namespace genoc
