/// \file campaign_json.hpp
/// \brief JSON rendering of the fault-campaign report (`genoc campaign
///        --json`), schema-versioned for tools/check_campaign_schema.py.
#pragma once

#include <optional>
#include <string>

#include "campaign/campaign.hpp"

namespace genoc::cli {

/// Serializes a CampaignReport as the schema-versioned envelope.
/// \p total_wall_ms is the whole command's wall, from spec resolution to
/// the report (the sweep's own is report.wall_ms). Without it, the thread
/// count, wall times and the metrics snapshot are omitted, so the output
/// is BYTE-IDENTICAL at any --threads value — the determinism contract the
/// campaign tests diff on. Cache counters are always included (they are
/// deterministic).
std::string campaign_report_json(const genoc::CampaignReport& report,
                                 std::optional<double> total_wall_ms);

}  // namespace genoc::cli
