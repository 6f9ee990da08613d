/// \file batch_runner.hpp
/// \brief BatchRunner: the shared worker pool that fans the dependency-graph
///        sweeps and instance verifications across threads.
///
/// Two axes parallelize independently and compose:
///
///   1. WITHIN one instance: build_dep_graph_fast (deadlock/depgraph.hpp),
///      given the pool, shards the per-DESTINATION route sweeps
///      (RouteSweeper), each shard OR-ing its edges into its own per-port
///      out-name bits; the OR of the shards is emitted once in port order,
///      so the parallel graph is BIT-IDENTICAL to the sequential one — and
///      to the generic oracle's.
///   2. ACROSS instances: `genoc verify --all` verifies every registered
///      instance, each writing its verdict into a fixed slot, so the
///      report order is deterministic too.
///
/// The sweep additionally shares analysis ARTIFACTS across instances: every
/// batch threads an ArtifactStore (verify/artifacts.hpp) keyed by the
/// canonical topology x routing x escape spec prefix, so two instances that
/// differ only in workload or switching (mesh8-xy vs mesh8-xy-sf) build the
/// dependency graph and decide acyclicity exactly once between them (and
/// read one reachability closure, whose rows are built on first touch).
///
/// The pool mechanics live in util/ThreadPool (so lower layers like the
/// dep-graph and escape builders can run on the same pool without
/// depending on this subsystem); parallel_for is work-sharing, hence
/// nested calls (an instance task sharding its own graph build) cannot
/// deadlock the pool.
#pragma once

#include <cstddef>
#include <vector>

#include "deadlock/depgraph.hpp"
#include "instance/network_instance.hpp"
#include "instance/spec.hpp"
#include "util/thread_pool.hpp"
#include "verify/pipeline.hpp"
#include "verify/report.hpp"

namespace genoc {

class BatchRunner : public ThreadPool {
 public:
  using ThreadPool::ThreadPool;
};

/// The instance sweep: runs \p pipeline over every spec — each instance's
/// own graph build sharded on the same pool — and returns full reports in
/// spec order. \p runner == nullptr degrades to the sequential loop.
/// Artifacts are acquired from base.artifacts when set, else from a
/// store local to this call, so duplicate spec prefixes are computed once
/// either way. No NetworkInstance is built; verdicts are identical to a
/// solo NetworkInstance(spec).verify() modulo cpu_ms.
std::vector<VerifyReport> verify_instance_reports(
    const std::vector<InstanceSpec>& specs, const VerifyPipeline& pipeline,
    BatchRunner* runner, const InstanceVerifyOptions& base = {});

/// Verdict-only convenience over verify_instance_reports with the standard
/// pipeline (the pre-pipeline API, kept source-compatible).
std::vector<InstanceVerdict> verify_instances(
    const std::vector<InstanceSpec>& specs, BatchRunner* runner,
    const InstanceVerifyOptions& base = {});

}  // namespace genoc
