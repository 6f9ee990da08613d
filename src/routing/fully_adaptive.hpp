/// \file fully_adaptive.hpp
/// \brief Unrestricted minimal fully-adaptive routing — the deliberately
///        deadlock-PRONE baseline.
///
/// Every productive direction is allowed at every switch. Its port
/// dependency graph contains cycles on any mesh with a 2x2 sub-block, so
/// Theorem 1's sufficiency direction applies: from any such cycle the
/// witness builder constructs a concrete deadlock configuration, which the
/// simulator confirms (Ω holds). This closes the loop on the paper's
/// "deadlock-free iff acyclic" equivalence from the negative side.
///
/// The paper restricts its deadlock condition to deterministic routing and
/// names adaptive routing as future work (Section IX: "The main tasks will
/// be to define a different dependency graph and formally check the
/// condition"). The adaptive functions (this one, West-First, North-Last,
/// Negative-First, Odd-Even) implement that extension: they return hop
/// *sets*, their dependency graphs are built by the same generic
/// enumeration, and acyclicity (or the SCC-based Taktak check, Sec. VIII)
/// is applied to the result.
///
/// All of them are *minimal*: every choice strictly reduces the Manhattan
/// distance to the destination, so a positional (memoryless) formulation
/// coincides with the history-aware turn-model definitions on all
/// reachable states — the turn already taken is implied by which
/// coordinates still differ.
#pragma once

#include "routing/routing.hpp"

namespace genoc {

class FullyAdaptiveRouting final : public NodeUniformRouting {
 public:
  explicit FullyAdaptiveRouting(const Mesh2D& mesh)
      : NodeUniformRouting(mesh) {}

  std::string name() const override { return "Fully-Adaptive"; }
  bool is_deterministic() const override { return false; }

  /// Every productive direction from every in-port: node-level by
  /// definition.
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override;
};

}  // namespace genoc
