/// \file artifacts.hpp
/// \brief AnalysisArtifacts: the compute-once cache the VerifyPipeline's
///        stages communicate through, and ArtifactStore: the batch-wide map
///        that shares one cache across every instance with the same
///        topology x routing x escape prefix.
///
/// Every stage consumes artifacts (the dependency graph, the acyclicity
/// verdict, the escape analysis, the (C-1)/(C-2) reports) and none of them
/// may be rebuilt once they exist: a stage that needs an artifact another
/// stage already produced — or a SECOND instance in a batch sweep sharing
/// the same prefix — gets the cached object and a `hits` tick instead of a
/// recompute. The counters make the reuse observable, so tests assert
/// "verify --all builds each distinct graph exactly once" instead of
/// trusting it. The routing's reachability closure is not an artifact: its
/// stored rows are built on first touch and published lock-free
/// (RoutingFunction::closure_row), so it needs no compute-once step.
///
/// Thread-safety: accessors take one internal lock for the whole compute,
/// so two batch tasks acquiring the same shared artifacts serialize on the
/// first compute and both read the same object afterwards. A compute may
/// itself shard over the pool (nested parallel_for is work-sharing — the
/// lock holder participates in its own chunks, so a blocked sibling task
/// can never deadlock it).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "deadlock/constraints.hpp"
#include "deadlock/depgraph.hpp"
#include "deadlock/escape.hpp"
#include "graph/cycle.hpp"
#include "instance/spec.hpp"

namespace genoc {

class ThreadPool;

/// Compute-once bookkeeping of one artifact kind: `misses` counts the
/// computes (the guarantee under test: one per distinct context), `hits`
/// every access that found the artifact cached — later stages of the same
/// run included, so hits measure cache traffic, not sharing alone.
struct ArtifactCounter {
  std::uint64_t misses = 0;
  std::uint64_t hits = 0;

  ArtifactCounter& operator+=(const ArtifactCounter& other) {
    misses += other.misses;
    hits += other.hits;
    return *this;
  }
  friend bool operator==(const ArtifactCounter&,
                         const ArtifactCounter&) = default;
};

/// Per-kind counters of one AnalysisArtifacts (or, aggregated, of a whole
/// ArtifactStore — see ArtifactStore::stats()).
struct ArtifactCacheStats {
  ArtifactCounter contexts;     ///< store-level: acquire() builds vs reuses
  ArtifactCounter dep_graph;    ///< dependency-graph builds
  ArtifactCounter acyclicity;   ///< acyclicity / cycle-witness decisions
  ArtifactCounter escape;       ///< escape-lane analyses
  ArtifactCounter constraints;  ///< (C-1)/(C-2) discharges

  ArtifactCacheStats& operator+=(const ArtifactCacheStats& other) {
    contexts += other.contexts;
    dep_graph += other.dep_graph;
    acyclicity += other.acyclicity;
    escape += other.escape;
    constraints += other.constraints;
    return *this;
  }
};

/// The acyclicity artifact: the (C-3) verdict plus the DFS cycle witness
/// backing the "dependency cycle of length N" evidence when it fails.
struct AcyclicityArtifact {
  bool acyclic = false;
  std::optional<CycleWitness> cycle;
};

/// The (C-1)/(C-2) artifact.
struct ConstraintsArtifact {
  ConstraintReport c1;
  ConstraintReport c2;
};

/// What verify and analyze report headers print about a context's model.
/// A fault variant wired to its base answers them from the base, with no
/// grid of its own.
struct ModelFacts {
  std::string family;        ///< Topology::family()
  std::string routing;       ///< RoutingFunction::name()
  std::size_t nodes = 0;
  std::size_t ports = 0;
  std::size_t destinations = 0;
  bool deterministic = false;  ///< RoutingFunction::is_deterministic()
};

/// The shared artifact cache of one analysis context (a topology + routing
/// + optional escape lane), built from a spec's analysis prefix. The
/// context owns its topology, routing and escape lane, so the cached
/// dependency graph (whose PortDepGraph points at that topology) stays
/// valid for as long as the context lives: across every instance of a
/// batch that shares it (ArtifactStore), or for the life of the one
/// NetworkInstance that holds it.
class AnalysisArtifacts {
 public:
  /// Builds topology/routing/escape from the spec's analysis prefix
  /// (topology family + parameters, routing, escape). Requires a valid
  /// spec; throws ContractViolation otherwise.
  explicit AnalysisArtifacts(const InstanceSpec& spec);

  /// Constructor for a FAULT VARIANT sharing its unfaulted base context.
  /// When \p spec has failed links, the context is WIRED to \p base: it
  /// looks up the base's ids of the ports its faults remove
  /// (removed_base_ports(), O(faults)) and builds no grid. Its grid and
  /// routing functions are derived on the first topology(), routing() or
  /// escape_routing() call (counted by `artifacts.variant_grids`); facts()
  /// and the connectivity screen read the base instead. With a node-uniform
  /// routing, the variant's dependency graph is the base graph's induced
  /// subgraph on the surviving ports. Two things follow, the campaign hot
  /// path:
  ///   - when the base is acyclic, so is the variant: acyclicity() and
  ///     edge_count() are answered from the base (see acyclicity()), and
  ///     neither a graph nor a grid is built unless asked for;
  ///   - otherwise the graph is built by DELTA from the base graph
  ///     (build_dep_graph_delta) instead of a full rebuild.
  /// \p base must be the context of this spec with failed_links cleared
  /// (same grid, same routing/escape; a base of another grid throws);
  /// passing nullptr, or an unfaulted spec, degrades to the plain
  /// constructor, and a routing that is not node-uniform builds its own
  /// graph.
  AnalysisArtifacts(const InstanceSpec& spec,
                    std::shared_ptr<AnalysisArtifacts> base);

  AnalysisArtifacts(const AnalysisArtifacts&) = delete;
  AnalysisArtifacts& operator=(const AnalysisArtifacts&) = delete;

  /// The canonical sharing key: the fields the analysis artifacts actually
  /// depend on — topology family + its parameters, routing, escape — in
  /// spec-string order. Workload, switching, buffers and the expected
  /// verdict are deliberately absent: two presets differing only there
  /// (mesh8-xy vs mesh8-xy-sf) share every artifact.
  static std::string key(const InstanceSpec& spec);

  /// The model constituents. A wired fault variant derives them on the
  /// first call (once, thread-safe); every other context built them in its
  /// constructor.
  const Topology& topology() const;
  const RoutingFunction& routing() const;
  /// The escape-lane routing, or nullptr when the context has none.
  const RoutingFunction* escape_routing() const;

  /// The report-header facts, known without deriving a wired variant's
  /// grid: the base's, less the removed ports.
  const ModelFacts& facts() const { return facts_; }

  /// The unfaulted base this fault variant is wired to, or nullptr.
  const AnalysisArtifacts* base() const { return base_.get(); }

  /// The failed links of the spec, as given (empty when unfaulted).
  const std::vector<LinkFault>& faults() const { return faults_; }

  /// Per-node out-mask histograms of routing(), counted on first touch and
  /// kept for the life of the context; on a campaign's base they serve the
  /// connectivity screen of every variant. Requires a node-uniform grid
  /// routing to read.
  const OutMaskHistograms& out_mask_histograms() const;

  /// The port dependency graph. \p generic_builder selects the quadratic
  /// oracle (bit-identical to the fast builder, so a cached graph is reused
  /// regardless of which builder produced it); \p pool shards the fast
  /// build over destinations.
  const PortDepGraph& dep_graph(bool generic_builder, ThreadPool* pool);

  /// The number of dependency-graph edges, the figure a verdict reports.
  /// A fault variant that inherits its base's acyclic verdict (see
  /// acyclicity()) counts them without a graph: the base edge count minus
  /// the base edges that touch a removed port, from the base's out- and
  /// in-degrees; cached. Every other context reads dep_graph().
  std::size_t edge_count(bool generic_builder, ThreadPool* pool);

  /// The (C-3) verdict with cycle witness, decided by find_cycle()'s
  /// sequential DFS; computes dep_graph on demand (\p pool only shards that
  /// build, so the verdict and witness are the same at every thread count).
  ///
  /// A delta-wired fault variant of an ACYCLIC base inherits the verdict
  /// instead: its graph is an induced subgraph of a DAG, hence a DAG, and
  /// the base's verdict rests on a rank certificate checked once with
  /// verify_rank_certificate (certified_acyclic()). No variant graph and no
  /// DFS. A cyclic base, and the \p generic_builder oracle path, keep the
  /// delta (or generic) build plus find_cycle.
  const AcyclicityArtifact& acyclicity(bool generic_builder, ThreadPool* pool);

  /// True iff this context is acyclic and its verdict carries a checked
  /// rank certificate, so fault variants wired to it inherit the verdict.
  /// The first call settles it: the dependency graph (sharded over
  /// \p pool), the acyclicity verdict, the DFS's reverse finish order as a
  /// rank, checked over every edge (a rejected rank is a ContractViolation,
  /// never a silent verdict), and the in-degree table edge_count() reads.
  /// The rank itself is dropped once checked. Counts as an acyclicity
  /// access. Call it on a campaign's base before the variants start, so
  /// they never contend on the first compute.
  bool certified_acyclic(ThreadPool* pool);

  /// The Duato escape-lane analysis. Requires escape_routing() != nullptr.
  const EscapeAnalysis& escape_analysis(ThreadPool* pool);

  /// The (C-1)/(C-2) reports; computes dep_graph on demand.
  const ConstraintsArtifact& constraints(bool generic_builder,
                                         ThreadPool* pool);

  /// Snapshot of this cache's hit/miss counters (`contexts` is always zero
  /// here; only the store tracks acquisitions).
  ArtifactCacheStats stats() const;

 private:
  const PortDepGraph& dep_graph_locked(bool generic_builder, ThreadPool* pool);
  /// With \p rank, a verdict computed here also fills the DFS's rank.
  const AcyclicityArtifact& acyclicity_locked(
      bool generic_builder, ThreadPool* pool,
      std::vector<std::int64_t>* rank = nullptr);
  /// Variant side: whether this context inherits its base's acyclic
  /// verdict (never on the generic oracle path); asks the base once.
  bool inherits_locked(bool generic_builder, ThreadPool* pool);
  /// Base side: this graph's edge count once \p removed (sorted base ids)
  /// and every edge touching them are deleted. Needs certified_acyclic().
  std::size_t surviving_edge_count(const std::vector<PortId>& removed);
  /// Binds the model constituents: \p topo plus the routings named.
  void bind(std::unique_ptr<Topology> topo, const std::string& routing,
            const std::string& escape) const;
  /// Derives a wired variant's grid and routings on first use.
  void derive() const;

  // Declared topology first: the routings (and the cached graph) point
  // into it, so it is destroyed last. Bound once, through bind_once_.
  mutable std::unique_ptr<Topology> topo_;
  mutable std::unique_ptr<RoutingFunction> routing_;
  mutable std::unique_ptr<RoutingFunction> escape_;  ///< null without a lane
  mutable std::optional<OutMaskHistograms> histograms_;
  mutable std::once_flag bind_once_;
  ModelFacts facts_;
  std::vector<LinkFault> faults_;

  // Fault-variant state: the unfaulted base context (keeps the base graph
  // alive and shares its compute across every variant of a campaign), the
  // routing names the lazy derivation binds, and whether the variant's
  // graph is the base graph's induced subgraph (a node-uniform routing).
  std::shared_ptr<AnalysisArtifacts> base_;
  std::string routing_name_;
  std::string escape_name_;
  bool delta_ = false;
  std::vector<PortId> removed_base_ports_;  ///< variant: sorted base ids
  std::optional<bool> inherits_;          ///< variant: asked the base yet?
  std::optional<std::size_t> edge_count_;  ///< variant: inherited count

  // Base state behind certified_acyclic(): whether the acyclic verdict's
  // rank certificate was checked, and the in-degree of every vertex.
  bool rank_checked_ = false;
  std::vector<std::uint32_t> in_degree_;

  mutable std::mutex mutex_;
  std::optional<PortDepGraph> dep_;
  std::optional<AcyclicityArtifact> acyclicity_;
  std::optional<EscapeAnalysis> escape_analysis_;
  std::optional<ConstraintsArtifact> constraints_;
  ArtifactCacheStats stats_;
};

/// The batch-wide sharing map: one AnalysisArtifacts per distinct
/// AnalysisArtifacts::key() in the sweep. verify_instances() threads a
/// store through every instance so `genoc verify --all` builds each
/// distinct context and graph exactly once.
class ArtifactStore {
 public:
  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// The artifacts for \p spec's analysis prefix, building the context on
  /// first sight of the key. Thread-safe; the returned pointer
  /// stays valid for the life of the store.
  std::shared_ptr<AnalysisArtifacts> acquire(const InstanceSpec& spec);

  /// Number of distinct analysis contexts materialized so far.
  std::size_t context_count() const;

  /// Aggregated counters: `contexts` from the store's acquire() ledger,
  /// everything else summed over the per-context caches.
  ArtifactCacheStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::shared_ptr<AnalysisArtifacts>>>
      entries_;
  ArtifactCounter contexts_;
};

}  // namespace genoc
