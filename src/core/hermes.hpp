/// \file hermes.hpp
/// \brief The full HERMES instantiation of GeNoC (paper Sections V–VI):
///        arbitrary-size 2D mesh, XY routing, wormhole switching, identity
///        injection — wired together as the executable GeNoC2D.
///
/// This is the library's main convenience entry point: construct an
/// instance, build configurations from (source, destination) node pairs,
/// run them, and discharge the full proof-obligation suite.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/genoc.hpp"
#include "core/injection.hpp"
#include "core/measure.hpp"
#include "core/theorems.hpp"
#include "core/travel.hpp"
#include "deadlock/depgraph.hpp"
#include "routing/xy.hpp"
#include "switching/wormhole.hpp"
#include "workload/traffic.hpp"

namespace genoc {

/// The HERMES NoC instance: GeNoC2D.
class HermesInstance {
 public:
  /// \param width,height    mesh dimensions (paper: arbitrary size).
  /// \param buffers_per_port  1-flit buffers at every port (Fig. 1b shows
  ///                          2; the paper leaves it uninterpreted).
  /// \param local_buffers   buffer depth of the Local IN/OUT ports; 0 means
  ///                        "same as buffers_per_port". Real HERMES designs
  ///                        often give the injection/ejection queues more
  ///                        depth than the switch-to-switch ports; the
  ///                        paper's "arbitrary number of buffers at each
  ///                        node" covers this heterogeneity.
  HermesInstance(std::int32_t width, std::int32_t height,
                 std::size_t buffers_per_port = 2,
                 std::size_t local_buffers = 0);

  const Mesh2D& mesh() const { return mesh_; }
  const XYRouting& routing() const { return routing_; }
  const WormholeSwitching& switching() const { return switching_; }
  const InjectionMethod& injection() const { return injection_; }
  const TerminationMeasure& measure() const { return measure_; }
  std::size_t buffers_per_port() const { return buffers_per_port_; }
  std::size_t local_buffers() const { return local_buffers_; }

  /// Builds a configuration with one travel per pair (ids 1..n, in order),
  /// each of \p flit_count flits, routes pre-computed by Rxy (GeNoC2D).
  Config make_config(const std::vector<TrafficPair>& pairs,
                     std::uint32_t flit_count) const;

  /// Runs GeNoC2D on the configuration (with (C-5) auditing on).
  GenocRunResult run(Config& config, const GenocOptions& options = {}) const;

  /// Discharges DeadThm for this instance via (C-1)–(C-3) on the
  /// closed-form Exy_dep (Sec. V.6).
  TheoremReport verify_deadlock_free() const;

 private:
  Mesh2D mesh_;
  XYRouting routing_;
  WormholeSwitching switching_;
  IdentityInjection injection_;
  FlitLevelMeasure measure_;
  std::size_t buffers_per_port_;
  std::size_t local_buffers_;
};

}  // namespace genoc
