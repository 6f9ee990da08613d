// build_dep_graph_delta exactness: for every node-uniform grid preset the
// delta-built dependency graph of every single-link-faulted variant is
// BIT-IDENTICAL to a full per-destination rebuild — same vertex count, same
// edge count, same CSR adjacency, edge for edge. Non-node-uniform presets
// (odd_even) exercise the documented fallback: the variant constructor
// degrades to a full build and equality holds trivially. mesh64-xy is
// covered by a sampled sweep (every 97th link) to bound runtime. The same
// induced-subgraph argument makes the unfaulted XY/YX unions exact on
// faulted meshes once filtered to the surviving ports.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/fault_model.hpp"
#include "deadlock/depgraph.hpp"
#include "instance/registry.hpp"
#include "instance/spec.hpp"
#include "obs/metrics.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "util/thread_pool.hpp"
#include "verify/artifacts.hpp"

namespace genoc {
namespace {

void expect_identical(const PortDepGraph& delta, const PortDepGraph& full,
                      const std::string& context) {
  ASSERT_EQ(delta.graph.vertex_count(), full.graph.vertex_count()) << context;
  ASSERT_EQ(delta.graph.edge_count(), full.graph.edge_count()) << context;
  for (std::uint32_t v = 0; v < full.graph.vertex_count(); ++v) {
    const auto d = delta.graph.out(v);
    const auto f = full.graph.out(v);
    ASSERT_EQ(d.size(), f.size()) << context << " vertex " << v;
    for (std::size_t i = 0; i < f.size(); ++i) {
      ASSERT_EQ(d[i], f[i]) << context << " vertex " << v << " slot " << i;
    }
  }
}

/// Sweeps every single-link variant of \p base (every \p stride-th link),
/// comparing the delta-derived graph against a from-scratch rebuild, which
/// shards over \p pool when one is given. stride == 0 selects
/// automatically: exhaustive where the delta path is live (node-uniform
/// routing), sampled where the variant constructor can only fall back to
/// full builds anyway. Returns the variants compared.
std::size_t sweep_single_faults(const InstanceSpec& base, std::size_t stride,
                                ThreadPool* pool = nullptr) {
  const FaultModel model(base);
  FaultPlan plan;  // kSingle
  const std::vector<InstanceSpec> variants = model.variants(plan);
  auto base_artifacts = std::make_shared<AnalysisArtifacts>(base);
  base_artifacts->dep_graph(false, nullptr);
  if (stride == 0) {
    stride = base_artifacts->routing().node_uniform() ? 1 : 24;
  }
  std::size_t compared = 0;
  for (std::size_t i = 0; i < variants.size(); i += stride) {
    const InstanceSpec& vspec = variants[i];
    const std::string context =
        base.name + " failed=" + join_failed_links(vspec.failed_links);
    AnalysisArtifacts delta_artifacts(vspec, base_artifacts);
    AnalysisArtifacts full_artifacts(vspec);
    expect_identical(delta_artifacts.dep_graph(false, nullptr),
                     full_artifacts.dep_graph(false, pool), context);
    ++compared;
  }
  return compared;
}

TEST(DepGraphDelta, BitIdenticalOnEveryGridPresetSingleFault) {
  // Every registered grid preset small enough for an exhaustive sweep:
  // XY/YX, the turn models, torus dimension-order with escape lanes, the
  // adaptive families — whatever the registry grows, the delta must match.
  std::size_t presets = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (!spec.is_grid() || !spec.failed_links.empty() ||
        spec.node_count() > 16 * 16) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    const std::size_t compared = sweep_single_faults(spec, 0);
    EXPECT_GT(compared, 0u) << spec.name;
    ++presets;
  }
  // The registry must actually feed the sweep (mesh8-xy, mesh16-xy, the
  // turn models, both toruses at minimum).
  EXPECT_GE(presets, 8u);
}

TEST(DepGraphDelta, SampledSweepOnMesh64) {
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh64-xy");
  ASSERT_NE(spec, nullptr);
  // The oracle rebuilds are per-destination sweeps of a 64x64 grid; the
  // pool shards them (the graph is bit-identical at any thread count).
  ThreadPool pool(4);
  EXPECT_GE(sweep_single_faults(*spec, 97, &pool), 80u);
}

TEST(DepGraphDelta, FullGridUnionsAreExactOnFaultedMeshes) {
  // The induced-subgraph argument read through the analytic emitter: the
  // unfaulted XY/YX next_outs tables, filtered to the surviving ports, give
  // a faulted mesh's dependency graph edge for edge. Every surviving
  // in-port holds the destinations it holds on the full grid, because its
  // driver's own node injects toward all of them.
  std::size_t compared = 0;
  for (std::int32_t w = 1; w <= 6; ++w) {
    for (std::int32_t h = 1; h <= 6; ++h) {
      if (w * h < 2) {
        continue;
      }
      for (std::int32_t node = 0; node < w * h; ++node) {
        for (const PortName name : {PortName::kEast, PortName::kSouth}) {
          const LinkFault link{node, name};
          if (!link_fault_exists(link, w, h, false, false)) {
            continue;
          }
          const Mesh2D mesh(w, h, false, false, {link});
          const XYRouting xy(mesh);
          const YXRouting yx(mesh);
          for (const RoutingFunction* routing :
               {static_cast<const RoutingFunction*>(&xy),
                static_cast<const RoutingFunction*>(&yx)}) {
            ASSERT_FALSE(routing->has_in_port_unions());
            const PortDepGraph from_unions = emit_dep_graph_from_unions(
                mesh,
                [routing](std::size_t at, std::size_t in_name) {
                  return routing->in_port_union(at, in_name);
                },
                /*terminal_in_edges=*/true);
            expect_identical(from_unions, build_dep_graph_fast(*routing),
                             routing->name() + " " + std::to_string(w) + "x" +
                                 std::to_string(h) + " failed=" +
                                 link_fault_token(link));
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 500u);
}

TEST(DepGraphDelta, DeltaPathIsActuallyTaken) {
  // The exactness sweep would pass vacuously if the variant constructor
  // silently fell back to full rebuilds; pin the counter.
  obs::Counter& delta_builds =
      obs::MetricsRegistry::global().counter("artifacts.dep_graph.delta_builds");
  const std::uint64_t before = delta_builds.value();
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh8-xy");
  ASSERT_NE(spec, nullptr);
  const std::size_t compared = sweep_single_faults(*spec, 1);
  EXPECT_EQ(compared, 112u);  // 7*8 + 7*8 links of an 8x8 mesh
  EXPECT_EQ(delta_builds.value() - before, compared);
}

TEST(DepGraphDelta, NonNodeUniformRoutingFallsBackToFullBuild) {
  // odd_even is not node-uniform: the variant constructor must degrade to
  // the plain owning path (no delta state), and the graphs still agree
  // because both sides are full builds.
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh16-oddeven");
  ASSERT_NE(spec, nullptr);
  obs::Counter& delta_builds =
      obs::MetricsRegistry::global().counter("artifacts.dep_graph.delta_builds");
  const std::uint64_t before = delta_builds.value();
  EXPECT_GT(sweep_single_faults(*spec, 24), 0u);
  EXPECT_EQ(delta_builds.value(), before);
}

}  // namespace
}  // namespace genoc
