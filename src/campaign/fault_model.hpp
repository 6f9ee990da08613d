/// \file fault_model.hpp
/// \brief FaultModel: deterministic, seeded enumeration of link-failure
///        variants of a base instance — the population a fault-injection
///        campaign sweeps.
///
/// The model works on the SPEC level: links are enumerated from the base
/// spec's grid geometry alone (no topology is built), each variant is the
/// base spec plus a canonical `failed=` fault set, and equal seeds produce
/// equal variant lists on every platform and at every thread count. The
/// injection/ejection exclusion is inherited from the fault grammar itself:
/// terminal (L) links are not links of the mesh fabric and cannot fail.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "instance/spec.hpp"

namespace genoc {

/// A parsed `--faults` plan: which variants of the base the campaign runs.
struct FaultPlan {
  enum class Kind {
    kSingle,  ///< every single-link failure, in canonical link order
    kDouble,  ///< every unordered pair of distinct link failures
    kRandom,  ///< one variant of `count` distinct links drawn from `seed`
  };
  Kind kind = Kind::kSingle;
  std::size_t count = 0;    ///< kRandom: number of links to fail (>= 1)
  std::uint64_t seed = 0;   ///< kRandom: Rng seed
};

/// Parses "single" | "double" | "random:<k>,<seed>". Returns nullopt with a
/// message in *error on anything else (including k == 0 or a malformed
/// number) — the CLI maps that to exit 2.
std::optional<FaultPlan> parse_fault_plan(const std::string& text,
                                          std::string* error);

/// Canonical rendering ("single", "double", "random:3,7") — round-trips
/// through parse_fault_plan.
std::string to_string(const FaultPlan& plan);

/// The fault population of one base instance: its fabric links in canonical
/// (node, port-name) order, and the variant specs a plan induces over them.
class FaultModel {
 public:
  /// Requires a valid grid spec with no failed links of its own (a
  /// campaign enumerates faults; it does not stack them on a pre-faulted
  /// base). Throws ContractViolation otherwise.
  explicit FaultModel(const InstanceSpec& base);

  const InstanceSpec& base() const { return base_; }

  /// Every bidirectional fabric link of the base, as canonical fault
  /// tokens, sorted by (node, name). Terminal links are excluded by
  /// construction.
  const std::vector<std::string>& links() const { return links_; }

  /// Number of variants \p plan induces without materializing them.
  /// kRandom requires count <= links().size().
  std::size_t variant_count(const FaultPlan& plan) const;

  /// Variant \p index of \p plan, built alone (for kDouble the pair index
  /// is unranked in O(1)), so a campaign can stream its variants instead of
  /// holding them all: link order for kSingle, lexicographic pair order
  /// (i < j) for kDouble, one spec for kRandom. Each variant is the base
  /// with `failed_links` set (and the preset name cleared, so display
  /// names show the fault set). Requires index < variant_count(plan).
  InstanceSpec variant(const FaultPlan& plan, std::size_t index) const;

  /// Every variant of \p plan, in index order.
  std::vector<InstanceSpec> variants(const FaultPlan& plan) const;

 private:
  InstanceSpec base_;
  std::vector<std::string> links_;
};

}  // namespace genoc
