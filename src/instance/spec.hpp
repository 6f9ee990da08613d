/// \file spec.hpp
/// \brief The instance specification: one plain-data record naming a
///        topology, a routing function, a switching policy and a workload —
///        everything needed to construct a verifiable/simulable network.
///
/// The paper's contribution is a *generic* deadlock-freedom condition that
/// is instantiated per network; InstanceSpec is the executable form of "one
/// instantiation". Specs come from two sources: the registry of named
/// presets (registry.hpp) and a booksim2-style `key=value` string
/// ("topology=torus size=16x16 routing=odd_even"), so arbitrary instances
/// are constructible straight from the CLI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace genoc {

/// A fully parsed description of a network instance. Plain data: the
/// factories that turn it into live objects are AnalysisArtifacts (the
/// analysis context: topology, routing, escape lane) and NetworkInstance
/// (one such context plus switching policy and workload, for simulation).
struct InstanceSpec {
  std::string name;     ///< registry name; empty for ad-hoc CLI specs
  std::string summary;  ///< one-line description (presets only)

  // ---- network -----------------------------------------------------------
  std::string topology = "mesh";  ///< see known_topologies()
  std::int32_t width = 4;
  std::int32_t height = 4;
  std::string routing = "xy";  ///< see known_routings()
  std::string switching = "wormhole";  ///< wormhole | store_forward
  std::uint32_t buffers = 2;   ///< 1-flit buffers per port
  /// Escape-lane routing for Duato-style verification of instances whose
  /// own dependency graph is cyclic (torus dimension-order, fully
  /// adaptive); empty = no escape lane.
  std::string escape;

  /// Failed bidirectional links (fault campaigns): each token names one
  /// directed channel "node:NAME" (row-major node index, cardinal name
  /// E/W/N/S) and removes BOTH channels of that link — all four ports —
  /// from the topology. Terminal (L) links never fail: fault campaigns
  /// honor the injection/ejection-port exclusions. Grid families only.
  /// Canonical form (what parse_instance_spec and with_failed_links
  /// store): each token is anchored at the endpoint with the smaller
  /// (node, name) pair and the list is sorted, so two fault sets naming
  /// the same physical links render the same spec string and share one
  /// AnalysisArtifacts::key(). Duplicates are preserved (the fault_sanity
  /// analyzer rule flags them).
  std::vector<std::string> failed_links;

  // ---- family parameters (non-grid topologies) ---------------------------
  std::uint32_t concentration = 2;  ///< cmesh: terminals per router
  std::uint32_t df_routers = 4;     ///< dragonfly: routers per group (a)
  std::uint32_t df_globals = 2;     ///< dragonfly: globals per router (h)
  std::uint32_t df_terminals = 2;   ///< dragonfly: terminals per router (p)
  std::uint32_t df_groups = 0;      ///< dragonfly: groups (0 = a*h + 1)

  /// The verdict this instance is REGISTERED to produce. Deadlock-free for
  /// every positive fixture; negative fixtures (dragonfly-minimal without
  /// VCs) set `expect=deadlock` and `verify --all` passes when the computed
  /// verdict matches the expectation.
  bool expect_deadlock_free = true;

  /// groups with the canonical a*h + 1 default applied.
  std::uint32_t df_groups_resolved() const {
    return df_groups != 0 ? df_groups : df_routers * df_globals + 1;
  }

  /// True for the 2D-grid families (mesh/torus/ring) the Port-tuple API,
  /// the escape lanes and the simulator are defined over.
  bool is_grid() const {
    return topology == "mesh" || topology == "torus" || topology == "ring";
  }

  // ---- workload (genoc sim / the simulated verification rows) ------------
  std::string pattern = "uniform-random";  ///< see parse_traffic_pattern()
  std::uint32_t messages = 64;  ///< count for the randomized patterns
  std::uint32_t flits = 4;
  std::uint64_t seed = 2010;

  /// Routers of the spec'd network — the size tests/examples bound sweep
  /// populations by (e.g. "everything up to 64x64").
  std::size_t node_count() const {
    if (topology == "dragonfly") {
      return static_cast<std::size_t>(df_groups_resolved()) * df_routers;
    }
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  }

  bool wrap_x() const { return topology == "torus" || topology == "ring"; }
  bool wrap_y() const { return topology == "torus"; }

  /// Returns a copy of this spec whose failed_links are the canonical form
  /// of \p links: every "node:NAME" token re-anchored to the directed
  /// endpoint with the smaller (node, name) pair under THIS spec's
  /// geometry, then sorted. Tokens that do not parse are kept verbatim
  /// (validate_spec rejects them later), so the function is total.
  InstanceSpec with_failed_links(const std::vector<std::string>& links) const;

  friend bool operator==(const InstanceSpec&, const InstanceSpec&) = default;
};

/// The canonical comma-joined rendering of a failed-link list (the value of
/// the `failed=` spec key). Shared by to_spec_string(),
/// AnalysisArtifacts::key() and the campaign report so the three can never
/// drift apart.
std::string join_failed_links(const std::vector<std::string>& links);

/// The accepted values of the enumerated keys, for validation and usage
/// text. Routing names are the canonical underscore forms.
const std::vector<std::string>& known_topologies();
const std::vector<std::string>& known_routings();
const std::vector<std::string>& known_switchings();

/// The turn-model subfamily of known_routings() (paper Sec. IX).
const std::vector<std::string>& turn_model_routings();

/// Parses a booksim2-style spec: whitespace-separated `key=value` tokens.
/// Keys: topology, size (N or WxH), width, height, routing, switching,
/// buffers, escape (routing name or "none"), failed (comma-separated
/// failed-link tokens or "none"), pattern, messages, flits, seed. A key
/// may appear once; size, width and height set the same fields and apply
/// in token order. Values are normalized
/// ('-' == '_' for routing/switching, pattern aliases resolved) and
/// validated, including cross-field consistency via validate_spec().
/// On failure returns nullopt and stores a human-readable message naming
/// the offending token in *error.
std::optional<InstanceSpec> parse_instance_spec(const std::string& text,
                                                std::string* error);

/// Canonical `key=value` rendering: parse_instance_spec() round-trips it
/// (name/summary are registry metadata and are not part of the string).
std::string to_spec_string(const InstanceSpec& spec);

/// The name reports show for \p spec: spec.name for presets, the canonical
/// spec string for ad-hoc specs.
std::string display_name(const InstanceSpec& spec);

/// Cross-field validation: dimension ranges (wrapped dimensions need >= 2
/// nodes), torus_xy requires a wrapped topology, escape must name a
/// deterministic routing, and every enumerated field must be known.
/// Returns the empty string when the spec is valid, else the complaint.
std::string validate_spec(const InstanceSpec& spec);

}  // namespace genoc
