/// \file toposort.hpp
/// \brief Rank certificates.
///
/// The paper's (C-3) proof for arbitrary-size meshes is the "flows" argument
/// (Fig. 4): every dependency edge makes monotone progress, so no cycle can
/// close. The executable shadow of that argument is a *rank certificate*: a
/// function rank(v) with rank(u) < rank(v) for every edge (u, v). This module
/// *verifies* externally supplied closed-form ranks, which is how the flow
/// certifier discharges (C-3) in O(E) for any mesh size. (Kahn's algorithm,
/// which computes ranks, lives with its users in tests/kahn.hpp.)
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.hpp"

namespace genoc {

/// Verifies a rank certificate: returns true iff rank[u] < rank[v] for every
/// edge (u, v). A valid certificate proves acyclicity (any cycle would need
/// rank strictly increasing around a loop). O(E).
bool verify_rank_certificate(const Digraph& graph,
                             const std::vector<std::int64_t>& rank);

/// verify_rank_certificate() as a contract: throws ContractViolation naming
/// the first violating edge, so a bad certificate can never pass silently.
void require_rank_certificate(const Digraph& graph,
                              const std::vector<std::int64_t>& rank);

/// The first edge violating the certificate, if any (for diagnostics).
std::optional<std::pair<std::size_t, std::size_t>> find_rank_violation(
    const Digraph& graph, const std::vector<std::int64_t>& rank);

}  // namespace genoc
