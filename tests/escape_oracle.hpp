/// \file escape_oracle.hpp
/// \brief The per-state escape-lane sweep, kept as the test oracle of the
///        node-granular analyze_escape().
///
/// escape_oracle() asks the escape function for the next hops of every
/// adaptive-reachable (in-port, destination) state and of every lane port,
/// one next_hop_ids_into() call each, exactly as the definition in
/// deadlock/escape.hpp reads. It trusts no node mask, so it needs neither a
/// node-uniform escape function nor any shard or merge logic. It runs
/// sequentially and is built only into the test binaries.
#pragma once

#include "deadlock/escape.hpp"
#include "routing/routing.hpp"

namespace genoc {

/// The escape analysis of \p adaptive with lane \p escape, computed one
/// state at a time. Field for field the result analyze_escape() must give.
EscapeAnalysis escape_oracle(const RoutingFunction& adaptive,
                             const RoutingFunction& escape);

}  // namespace genoc
