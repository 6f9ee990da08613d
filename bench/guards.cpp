/// \file guards.cpp
/// \brief The micro-benchmarks the CI perf guards read
///        (tools/check_bench_guard.py) and the ROADMAP's perf trajectory
///        cites: fast vs generic dependency-graph builds, sequential vs
///        sharded sweep builds, delta vs rebuilt
///        fault-variant graphs, fault-variant contexts and one grid
///        build, sequential vs sharded vs analytic escape
///        analysis, the mesh256 context build, the headline mesh128/mesh256
///        verifies, the mesh128 analyzer pre-screen and the registry
///        sweep.
///
/// Every case times wall clock (UseRealTime) and reports the process's
/// peak RSS as the `max_rss_kb` counter. Parallel cases run on a pool of
/// hardware-concurrency threads. Run with
/// `--benchmark_out=F --benchmark_out_format=json` to feed the guard.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "campaign/fault_model.hpp"
#include "deadlock/depgraph.hpp"
#include "deadlock/escape.hpp"
#include "instance/batch_runner.hpp"
#include "instance/registry.hpp"
#include "routing/cmesh_dor.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "util/stopwatch.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace {

using namespace genoc;

/// The pool every parallel case shares: hardware concurrency. Cases take
/// it before their timed loop, so the first one does not time its start.
BatchRunner& pool() {
  static BatchRunner runner(0);
  return runner;
}

void report_rss(benchmark::State& state) {
  state.counters["max_rss_kb"] =
      benchmark::Counter(static_cast<double>(peak_rss_kb()));
}

// The fast builder (analytic on unwrapped XY meshes) against the generic
// oracle. CI guards the >= 10x ratio.
void depgraph_generic_8x8(benchmark::State& state) {
  const Mesh2D mesh(8, 8);
  const XYRouting routing(mesh);
  for (auto _ : state) {
    const PortDepGraph dep = build_dep_graph(routing);
    benchmark::DoNotOptimize(dep.graph.edge_count());
  }
  report_rss(state);
}

void depgraph_fast_8x8(benchmark::State& state) {
  const Mesh2D mesh(8, 8);
  const XYRouting routing(mesh);
  for (auto _ : state) {
    const PortDepGraph dep = build_dep_graph_fast(routing);
    benchmark::DoNotOptimize(dep.graph.edge_count());
  }
  report_rss(state);
}

// The same guard (>= 4x) on the first non-grid family: the cmesh8-dor
// network, an 8x8 c=4 concentrated mesh (960 ports, 256 destinations),
// where the fast builder takes the id-native sweep.
void depgraph_generic_cmesh(benchmark::State& state) {
  const CMeshTopology cmesh(8, 8, 4);
  const CMeshDORRouting routing(cmesh);
  for (auto _ : state) {
    const PortDepGraph dep = build_dep_graph(routing);
    benchmark::DoNotOptimize(dep.graph.edge_count());
  }
  report_rss(state);
}

void depgraph_fast_cmesh(benchmark::State& state) {
  const CMeshTopology cmesh(8, 8, 4);
  const CMeshDORRouting routing(cmesh);
  for (auto _ : state) {
    const PortDepGraph dep = build_dep_graph_fast(routing);
    benchmark::DoNotOptimize(dep.graph.edge_count());
  }
  report_rss(state);
}

void depgraph_fast_256x256(benchmark::State& state) {
  const Mesh2D mesh(256, 256);
  const XYRouting routing(mesh);
  for (auto _ : state) {
    const PortDepGraph dep = build_dep_graph_fast(routing);
    benchmark::DoNotOptimize(dep.graph.edge_count());
  }
  report_rss(state);
}

// The per-destination sweep (a failed link keeps XY off the analytic
// build), sequential vs destination-sharded: CI guards the
// parallel/sequential ratio, so the shard merge keeps paying.
void depgraph_sweep_sequential_faulted_64x64(benchmark::State& state) {
  const Mesh2D mesh(64, 64, false, false, {LinkFault{2080, PortName::kEast}});
  const XYRouting routing(mesh);
  for (auto _ : state) {
    const PortDepGraph dep = build_dep_graph_fast(routing);
    benchmark::DoNotOptimize(dep.graph.edge_count());
  }
  report_rss(state);
}

void depgraph_sweep_parallel_faulted_64x64(benchmark::State& state) {
  const Mesh2D mesh(64, 64, false, false, {LinkFault{2080, PortName::kEast}});
  const XYRouting routing(mesh);
  BatchRunner& runner = pool();
  for (auto _ : state) {
    const PortDepGraph dep = build_dep_graph_fast(routing, &runner);
    benchmark::DoNotOptimize(dep.graph.edge_count());
  }
  report_rss(state);
}

/// Every 30th single-link fault of mesh16 (16 variants); removed names the
/// base grid's ports each one lacks.
struct FaultVariant {
  std::unique_ptr<Mesh2D> mesh;
  std::unique_ptr<XYRouting> routing;
  std::vector<PortId> removed;
};

std::vector<FaultVariant> mesh16_fault_sample(const Mesh2D& base) {
  std::vector<LinkFault> links;
  for (std::int32_t node = 0; node < 16 * 16; ++node) {
    for (const PortName name : {PortName::kEast, PortName::kNorth}) {
      const LinkFault fault{node, name};
      if (link_fault_exists(fault, 16, 16, false, false)) {
        links.push_back(canonical_link_fault(fault, 16, 16, false, false));
      }
    }
  }
  std::vector<FaultVariant> variants;
  for (std::size_t i = 0; i < links.size(); i += 30) {
    const std::vector<LinkFault> faults = {links[i]};
    FaultVariant variant;
    variant.mesh = std::make_unique<Mesh2D>(16, 16, false, false, faults);
    variant.routing = std::make_unique<XYRouting>(*variant.mesh);
    variant.removed = removed_base_ports(base, faults);
    variants.push_back(std::move(variant));
  }
  return variants;
}

// Fault-campaign perf: the delta builder derives each variant's graph
// from the base graph by dropping edges incident to the removed ports.
// CI guards its >= 5x advantage over rebuilding every variant's graph.
void campaign_delta_mesh16_single(benchmark::State& state) {
  const Mesh2D base_mesh(16, 16);
  const XYRouting base_routing(base_mesh);
  const PortDepGraph base_dep = build_dep_graph_fast(base_routing);
  const std::vector<FaultVariant> variants = mesh16_fault_sample(base_mesh);
  for (auto _ : state) {
    for (const FaultVariant& v : variants) {
      const PortDepGraph dep =
          build_dep_graph_delta(base_dep, *v.routing, v.removed);
      benchmark::DoNotOptimize(dep.graph.edge_count());
    }
  }
  report_rss(state);
}

void campaign_rebuild_mesh16_single(benchmark::State& state) {
  const Mesh2D base_mesh(16, 16);
  const std::vector<FaultVariant> variants = mesh16_fault_sample(base_mesh);
  for (auto _ : state) {
    for (const FaultVariant& v : variants) {
      const PortDepGraph dep = build_dep_graph_fast(*v.routing);
      benchmark::DoNotOptimize(dep.graph.edge_count());
    }
  }
  report_rss(state);
}

// Fault-campaign per-variant work: every 31st single-fault variant of the
// 32x32 XY mesh (64 variants) as run_campaign runs it — the analysis
// context wired to the campaign's certified base, the three screen rules
// and the standard pipeline. CI gates its time per iteration (all 64
// variants) with an absolute ceiling. The next bench times one unfaulted
// grid build, its side a run-time argument.
void campaign_context_mesh32_single(benchmark::State& state) {
  std::string error;
  const InstanceSpec base_spec =
      *parse_instance_spec("topology=mesh size=32x32 routing=xy", &error);
  const auto base = std::make_shared<AnalysisArtifacts>(base_spec);
  base->certified_acyclic(nullptr);
  const FaultModel model(base_spec);
  const FaultPlan single;
  std::vector<InstanceSpec> variants;
  for (std::size_t i = 0; i < model.variant_count(single); i += 31) {
    variants.push_back(model.variant(single, i));
  }
  const Analyzer screen = *Analyzer::from_rule_names(
      {"spec_sanity", "fault_sanity", "connectivity"}, &error);
  const VerifyPipeline& pipeline = VerifyPipeline::standard();
  for (auto _ : state) {
    for (const InstanceSpec& vspec : variants) {
      AnalysisArtifacts context(vspec, base);
      benchmark::DoNotOptimize(screen.run(vspec, context).checks);
      benchmark::DoNotOptimize(
          pipeline.run(vspec, context, {}).verdict.deadlock_free);
    }
  }
  state.counters["variants"] =
      benchmark::Counter(static_cast<double>(variants.size()));
  report_rss(state);
}

void campaign_mesh_build(benchmark::State& state) {
  const std::int32_t side = static_cast<std::int32_t>(state.range(0));
  for (auto _ : state) {
    const Mesh2D mesh(side, side);
    benchmark::DoNotOptimize(mesh.port_count());
  }
  report_rss(state);
}

// Escape-lane analysis of the 64x64 torus: the node-mode sweep,
// sequential vs destination-sharded (CI guards the parallel/sequential
// ratio), and the analytic path analyze_escape takes there (CI gates its
// absolute time).
void escape_sequential_64x64(benchmark::State& state) {
  const Mesh2D torus(64, 64, true, true);
  const TorusXYRouting routing(torus);
  const XYRouting escape(torus);
  for (auto _ : state) {
    const EscapeAnalysis analysis = analyze_escape_sweep(routing, escape);
    benchmark::DoNotOptimize(analysis.deadlock_free);
  }
  report_rss(state);
}

void escape_parallel_64x64(benchmark::State& state) {
  const Mesh2D torus(64, 64, true, true);
  const TorusXYRouting routing(torus);
  const XYRouting escape(torus);
  BatchRunner& runner = pool();
  for (auto _ : state) {
    const EscapeAnalysis analysis =
        analyze_escape_sweep(routing, escape, &runner);
    benchmark::DoNotOptimize(analysis.deadlock_free);
  }
  report_rss(state);
}

void escape_analytic_64x64(benchmark::State& state) {
  const Mesh2D torus(64, 64, true, true);
  const TorusXYRouting routing(torus);
  const XYRouting escape(torus);
  for (auto _ : state) {
    const EscapeAnalysis analysis = analyze_escape(routing, escape);
    benchmark::DoNotOptimize(analysis.deadlock_free);
  }
  report_rss(state);
}

// The analytic escape analysis with its fault terms live: a 64x64 torus
// missing three links, one of them a wrap link the XY lane never takes.
void escape_analytic_faulted_64x64(benchmark::State& state) {
  const Mesh2D torus(64, 64, true, true,
                     {LinkFault{65, PortName::kEast},
                      LinkFault{2080, PortName::kSouth},
                      LinkFault{4095, PortName::kEast}});
  const TorusXYRouting routing(torus);
  const XYRouting escape(torus);
  for (auto _ : state) {
    const EscapeAnalysis analysis = analyze_escape(routing, escape);
    benchmark::DoNotOptimize(analysis.deadlock_free);
  }
  report_rss(state);
}

// One analysis context of the 256x256 XY mesh: the topology tables and the
// routing, what `artifact:context_build` spans before any stage runs.
void context_build_256x256(benchmark::State& state) {
  const InstanceSpec spec = *InstanceRegistry::global().find("mesh256-xy");
  for (auto _ : state) {
    const AnalysisArtifacts context(spec);
    benchmark::DoNotOptimize(context.topology().port_count());
  }
  report_rss(state);
}

// End-to-end verify anchors (pre-screen excluded): CI gates mesh128-xy's
// wall time and mesh256-xy's peak RSS, each in its own process.
void verify_preset(benchmark::State& state, const char* name) {
  const InstanceSpec spec = *InstanceRegistry::global().find(name);
  BatchRunner& runner = pool();
  for (auto _ : state) {
    const auto verdicts = verify_instances({spec}, &runner);
    benchmark::DoNotOptimize(verdicts.front().deadlock_free);
  }
  report_rss(state);
}

void verify_mesh128_xy(benchmark::State& state) {
  verify_preset(state, "mesh128-xy");
}

void verify_mesh256_xy(benchmark::State& state) {
  verify_preset(state, "mesh256-xy");
}

// `genoc verify --all`: every non-heavy registered instance.
void registry_verify_all(benchmark::State& state) {
  BatchRunner& runner = pool();
  for (auto _ : state) {
    const auto verdicts = verify_instances(
        InstanceRegistry::global().sweep_presets(), &runner);
    benchmark::DoNotOptimize(verdicts.size());
  }
  report_rss(state);
}

// Steady-state re-verification: the store outlives the iterations and is
// warmed before timing, so every artifact is a cache hit.
void registry_verify_all_cached(benchmark::State& state) {
  static ArtifactStore store;
  InstanceVerifyOptions options;
  options.artifacts = &store;
  BatchRunner& runner = pool();
  verify_instances(InstanceRegistry::global().sweep_presets(), &runner,
                   options);
  for (auto _ : state) {
    const auto verdicts = verify_instances(
        InstanceRegistry::global().sweep_presets(), &runner, options);
    benchmark::DoNotOptimize(verdicts.size());
  }
  report_rss(state);
}

// The analyzer pre-screen `genoc verify` runs before the pipeline (the
// cheap rules, over the verify's pool) on a fresh mesh128-xy context per
// iteration, so every iteration pays for the dependency graph `turns`
// reads: the layer the verify anchors above leave out. Building (and
// dropping) the context is not timed.
void prescreen_mesh128_xy(benchmark::State& state) {
  const InstanceSpec spec = *InstanceRegistry::global().find("mesh128-xy");
  std::optional<AnalysisArtifacts> context;
  BatchRunner& runner = pool();
  for (auto _ : state) {
    state.PauseTiming();
    context.reset();
    context.emplace(spec);
    state.ResumeTiming();
    const AnalyzeReport report =
        Analyzer::cheap().run(spec, *context, {}, &runner);
    benchmark::DoNotOptimize(report.checks);
  }
  report_rss(state);
}

#define GUARD_BENCH(name, unit) \
  BENCHMARK(name)->UseRealTime()->Unit(benchmark::unit)

GUARD_BENCH(depgraph_generic_8x8, kMicrosecond);
GUARD_BENCH(depgraph_fast_8x8, kMicrosecond);
GUARD_BENCH(depgraph_generic_cmesh, kMicrosecond);
GUARD_BENCH(depgraph_fast_cmesh, kMicrosecond);
GUARD_BENCH(depgraph_fast_256x256, kMillisecond);
GUARD_BENCH(depgraph_sweep_sequential_faulted_64x64, kMillisecond);
GUARD_BENCH(depgraph_sweep_parallel_faulted_64x64, kMillisecond);
GUARD_BENCH(campaign_delta_mesh16_single, kMicrosecond);
GUARD_BENCH(campaign_rebuild_mesh16_single, kMicrosecond);
GUARD_BENCH(campaign_context_mesh32_single, kMicrosecond);
GUARD_BENCH(campaign_mesh_build, kMicrosecond)->Arg(32);
GUARD_BENCH(escape_sequential_64x64, kMillisecond);
GUARD_BENCH(escape_parallel_64x64, kMillisecond);
GUARD_BENCH(escape_analytic_64x64, kMillisecond);
GUARD_BENCH(escape_analytic_faulted_64x64, kMillisecond);
GUARD_BENCH(context_build_256x256, kMillisecond);
GUARD_BENCH(verify_mesh128_xy, kMillisecond);
GUARD_BENCH(verify_mesh256_xy, kMillisecond);
GUARD_BENCH(registry_verify_all, kMillisecond);
GUARD_BENCH(registry_verify_all_cached, kMicrosecond);
GUARD_BENCH(prescreen_mesh128_xy, kMillisecond);

}  // namespace

BENCHMARK_MAIN();
