#include "verify/artifacts.hpp"

#include <algorithm>

#include "graph/toposort.hpp"
#include "instance/network_instance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"

namespace genoc {

namespace {

/// The legacy ArtifactCacheStats counters stay (the per-run report delta is
/// computed from them); these mirror every tick into the process-wide
/// MetricsRegistry so the cache is observable without threading a report
/// through. References are stable for the process lifetime — call sites
/// cache them in function-local statics.
struct KindCounters {
  obs::Counter& hits;
  obs::Counter& misses;
};

KindCounters kind_counters(const char* kind) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const std::string prefix = std::string("artifacts.") + kind;
  return KindCounters{metrics.counter(prefix + ".hits"),
                      metrics.counter(prefix + ".misses")};
}

}  // namespace

AnalysisArtifacts::AnalysisArtifacts(const InstanceSpec& spec)
    : AnalysisArtifacts(spec, nullptr) {}

AnalysisArtifacts::AnalysisArtifacts(const InstanceSpec& spec,
                                     std::shared_ptr<AnalysisArtifacts> base) {
  const std::string invalid = validate_spec(spec);
  GENOC_REQUIRE(invalid.empty(), "invalid instance spec: " + invalid);
  topo_ = make_topology(spec);
  routing_ = make_routing(spec.routing, *topo_);
  if (!spec.escape.empty()) {
    escape_ = make_routing(spec.escape, *topo_);
  }
  if (base == nullptr || spec.failed_links.empty()) {
    return;  // nothing to delta from — full builds as usual
  }
  // Failed links validate only on grids, so a variant is a mesh, and its
  // base must be the same grid unfaulted.
  const auto& mesh = static_cast<const Mesh2D&>(*topo_);
  const auto* base_mesh = dynamic_cast<const Mesh2D*>(&base->topology());
  GENOC_REQUIRE(base_mesh != nullptr && base_mesh->width() == mesh.width() &&
                    base_mesh->height() == mesh.height() &&
                    base_mesh->wraps_x() == mesh.wraps_x() &&
                    base_mesh->wraps_y() == mesh.wraps_y(),
                "delta base context does not match the variant's grid");
  if (!routing_->node_uniform()) {
    return;  // the graph is not the base's induced subgraph
  }
  removed_base_ports_ = removed_base_ports(*base_mesh, mesh.failed_links());
  base_ = std::move(base);
}

std::string AnalysisArtifacts::key(const InstanceSpec& spec) {
  std::string prefix = "topology=" + spec.topology;
  if (spec.topology == "dragonfly") {
    prefix += " routers=" + std::to_string(spec.df_routers) +
              " globals=" + std::to_string(spec.df_globals) +
              " terminals=" + std::to_string(spec.df_terminals) +
              " groups=" + std::to_string(spec.df_groups_resolved());
  } else {
    prefix += " size=" + std::to_string(spec.width) + "x" +
              std::to_string(spec.height);
    if (spec.topology == "cmesh") {
      prefix += " concentration=" + std::to_string(spec.concentration);
    }
  }
  prefix += " routing=" + spec.routing +
            " escape=" + (spec.escape.empty() ? "none" : spec.escape);
  // Fault variants are distinct analysis contexts; the canonical token
  // order (with_failed_links) makes equal fault sets share one key.
  if (!spec.failed_links.empty()) {
    prefix += " failed=" + join_failed_links(spec.failed_links);
  }
  return prefix;
}

const PortDepGraph& AnalysisArtifacts::dep_graph_locked(bool generic_builder,
                                                        ThreadPool* pool) {
  static KindCounters counters = kind_counters("dep_graph");
  if (dep_.has_value()) {
    // Reused regardless of which builder produced it: the generic oracle
    // and the fast builder, pooled or not, are bit-identical (the test
    // suite's standing cross-check), so the graph content cannot differ.
    ++stats_.dep_graph.hits;
    counters.hits.increment();
    return *dep_;
  }
  ++stats_.dep_graph.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:dep_graph");
  if (generic_builder) {
    dep_ = build_dep_graph(*routing_);
  } else if (base_ != nullptr) {
    // Fault-variant delta: filter the base graph instead of re-sweeping.
    // Lock order is variant -> base only (a base never acquires a
    // variant), so the nested dep_graph() cannot deadlock; concurrent
    // variants serialize on the base's first build and hit thereafter.
    static obs::Counter& delta_builds =
        obs::MetricsRegistry::global().counter("artifacts.dep_graph.delta_builds");
    const PortDepGraph& base_graph = base_->dep_graph(false, pool);
    dep_ = build_dep_graph_delta(base_graph, *routing_, removed_base_ports_);
    delta_builds.increment();
  } else {
    dep_ = build_dep_graph_fast(*routing_, pool);
  }
  return *dep_;
}

const PortDepGraph& AnalysisArtifacts::dep_graph(bool generic_builder,
                                                 ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dep_graph_locked(generic_builder, pool);
}

std::size_t AnalysisArtifacts::edge_count(bool generic_builder,
                                         ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!edge_count_.has_value()) {
    if (!inherits_locked(generic_builder, pool)) {
      return dep_graph_locked(generic_builder, pool).graph.edge_count();
    }
    edge_count_ = base_->surviving_edge_count(removed_base_ports_);
  }
  return *edge_count_;
}

bool AnalysisArtifacts::inherits_locked(bool generic_builder,
                                        ThreadPool* pool) {
  if (base_ == nullptr || generic_builder) {
    return false;
  }
  if (!inherits_.has_value()) {
    // Lock order is variant -> base only (a base never acquires a
    // variant), so the nested call cannot deadlock.
    inherits_ = base_->certified_acyclic(pool);
  }
  return *inherits_;
}

std::size_t AnalysisArtifacts::surviving_edge_count(
    const std::vector<PortId>& removed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  GENOC_REQUIRE(rank_checked_,
                "edge counts are inherited only from a certified base");
  const Digraph& graph = dep_graph_locked(false, nullptr).graph;
  // Inclusion-exclusion over the removed ports: an edge with both ends
  // removed is counted once as an out-edge and once as an in-edge.
  std::size_t touching = 0;
  for (const PortId port : removed) {
    const auto out = graph.out(port);
    touching += out.size() + in_degree_[port];
    for (const std::uint32_t target : out) {
      if (std::binary_search(removed.begin(), removed.end(), target)) {
        --touching;
      }
    }
  }
  return graph.edge_count() - touching;
}

const AcyclicityArtifact& AnalysisArtifacts::acyclicity_locked(
    bool generic_builder, ThreadPool* pool, std::vector<std::int64_t>* rank) {
  static KindCounters counters = kind_counters("acyclicity");
  if (acyclicity_.has_value()) {
    ++stats_.acyclicity.hits;
    counters.hits.increment();
    return *acyclicity_;
  }
  if (inherits_locked(generic_builder, pool)) {
    // An induced subgraph of a certified DAG: acyclic, no cycle to witness.
    static obs::Counter& inherited =
        obs::MetricsRegistry::global().counter("artifacts.acyclicity.inherited");
    ++stats_.acyclicity.misses;
    counters.misses.increment();
    inherited.increment();
    acyclicity_ = AcyclicityArtifact{true, std::nullopt};
    return *acyclicity_;
  }
  const PortDepGraph& dep = dep_graph_locked(generic_builder, pool);
  ++stats_.acyclicity.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:acyclicity");
  AcyclicityArtifact result;
  // One sequential DFS at every thread count: linear, and the witness it
  // returns cannot depend on the pool.
  result.cycle = find_cycle(dep.graph, rank);
  result.acyclic = !result.cycle.has_value();
  acyclicity_ = std::move(result);
  return *acyclicity_;
}

const AcyclicityArtifact& AnalysisArtifacts::acyclicity(bool generic_builder,
                                                        ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return acyclicity_locked(generic_builder, pool);
}

bool AnalysisArtifacts::certified_acyclic(ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (rank_checked_) {
    return acyclicity_locked(false, pool).acyclic;
  }
  // Only an unfaulted context is a base, and its verdict always comes
  // with its own graph (a variant's may be inherited, with none).
  GENOC_REQUIRE(base_ == nullptr,
                "a fault variant cannot certify verdicts for variants");
  std::vector<std::int64_t> rank;
  const bool decided = acyclicity_.has_value();
  if (!acyclicity_locked(false, pool, &rank).acyclic) {
    return false;
  }
  obs::TraceSpan span("artifact:rank_certificate");
  const Digraph& graph = dep_->graph;
  if (decided) {
    find_cycle(graph, &rank);  // decided without a rank: one more DFS
  }
  require_rank_certificate(graph, rank);
  in_degree_.assign(graph.vertex_count(), 0);
  for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
    for (const std::uint32_t target : graph.out(v)) {
      ++in_degree_[target];
    }
  }
  rank_checked_ = true;
  return true;
}

const EscapeAnalysis& AnalysisArtifacts::escape_analysis(ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  GENOC_REQUIRE(escape_ != nullptr,
                "escape_analysis() on a context without an escape lane");
  static KindCounters counters = kind_counters("escape");
  if (escape_analysis_.has_value()) {
    ++stats_.escape.hits;
    counters.hits.increment();
    return *escape_analysis_;
  }
  // analyze_escape's sweep reads closure rows per destination, each shard
  // through its own scratch; its analytic path (dimension-order adaptive
  // routing and lane on any grid, fault variants included) reads none.
  ++stats_.escape.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:escape_analysis");
  escape_analysis_ = analyze_escape(*routing_, *escape_, pool);
  return *escape_analysis_;
}

const ConstraintsArtifact& AnalysisArtifacts::constraints(bool generic_builder,
                                                          ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  static KindCounters counters = kind_counters("constraints");
  if (constraints_.has_value()) {
    ++stats_.constraints.hits;
    counters.hits.increment();
    return *constraints_;
  }
  const PortDepGraph& dep = dep_graph_locked(generic_builder, pool);
  ++stats_.constraints.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:constraints");
  ConstraintsArtifact result;
  result.c1 = check_c1(*routing_, dep);
  result.c2 = check_c2(*routing_, dep);
  constraints_ = std::move(result);
  return *constraints_;
}

ArtifactCacheStats AnalysisArtifacts::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::shared_ptr<AnalysisArtifacts> ArtifactStore::acquire(
    const InstanceSpec& spec) {
  static KindCounters counters = kind_counters("contexts");
  const std::string key = AnalysisArtifacts::key(spec);
  const auto find = [this, &key] {
    return std::find_if(
        entries_.begin(), entries_.end(),
        [&key](const auto& entry) { return entry.first == key; });
  };
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = find(); it != entries_.end()) {
      ++contexts_.hits;
      counters.hits.increment();
      return it->second;
    }
  }
  // Build outside the lock: a fault variant first acquires its unfaulted
  // BASE context (recursively, so campaigns share one base graph across
  // every variant), and context construction itself is the expensive part.
  std::shared_ptr<AnalysisArtifacts> base;
  if (!spec.failed_links.empty() && spec.is_grid()) {
    InstanceSpec base_spec = spec;
    base_spec.failed_links.clear();
    base = acquire(base_spec);
  }
  obs::TraceSpan span("artifact:context_build");
  auto artifacts = base != nullptr
                       ? std::make_shared<AnalysisArtifacts>(spec, base)
                       : std::make_shared<AnalysisArtifacts>(spec);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = find(); it != entries_.end()) {
    // Lost a build race; the first-published context wins so every caller
    // shares one cache.
    ++contexts_.hits;
    counters.hits.increment();
    return it->second;
  }
  ++contexts_.misses;
  counters.misses.increment();
  entries_.emplace_back(key, artifacts);
  return artifacts;
}

std::size_t ArtifactStore::context_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

ArtifactCacheStats ArtifactStore::stats() const {
  std::vector<std::shared_ptr<AnalysisArtifacts>> contexts;
  ArtifactCacheStats total;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    total.contexts = contexts_;
    contexts.reserve(entries_.size());
    for (const auto& [key, artifacts] : entries_) {
      contexts.push_back(artifacts);
    }
  }
  for (const auto& artifacts : contexts) {
    total += artifacts->stats();
  }
  return total;
}

}  // namespace genoc
