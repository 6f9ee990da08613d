#include "campaign/fault_model.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "topology/mesh.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace genoc {

namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size() &&
         !text.empty();
}

}  // namespace

std::optional<FaultPlan> parse_fault_plan(const std::string& text,
                                          std::string* error) {
  FaultPlan plan;
  if (text == "single") {
    plan.kind = FaultPlan::Kind::kSingle;
    return plan;
  }
  if (text == "double") {
    plan.kind = FaultPlan::Kind::kDouble;
    return plan;
  }
  const std::string prefix = "random:";
  if (text.rfind(prefix, 0) == 0) {
    const std::string rest = text.substr(prefix.size());
    const std::size_t comma = rest.find(',');
    std::uint64_t count = 0;
    std::uint64_t seed = 0;
    if (comma == std::string::npos ||
        !parse_u64(std::string_view(rest).substr(0, comma), count) ||
        !parse_u64(std::string_view(rest).substr(comma + 1), seed)) {
      if (error != nullptr) {
        *error = "malformed fault plan '" + text +
                 "': random takes 'random:<k>,<seed>' with two integers";
      }
      return std::nullopt;
    }
    if (count == 0) {
      if (error != nullptr) {
        *error = "fault plan '" + text + "' would fail zero links; k >= 1";
      }
      return std::nullopt;
    }
    plan.kind = FaultPlan::Kind::kRandom;
    plan.count = static_cast<std::size_t>(count);
    plan.seed = seed;
    return plan;
  }
  if (error != nullptr) {
    *error = "unknown fault plan '" + text +
             "' (expected single, double, or random:<k>,<seed>)";
  }
  return std::nullopt;
}

std::string to_string(const FaultPlan& plan) {
  switch (plan.kind) {
    case FaultPlan::Kind::kSingle:
      return "single";
    case FaultPlan::Kind::kDouble:
      return "double";
    case FaultPlan::Kind::kRandom:
      return "random:" + std::to_string(plan.count) + "," +
             std::to_string(plan.seed);
  }
  return "single";
}

FaultModel::FaultModel(const InstanceSpec& base) : base_(base) {
  const std::string invalid = validate_spec(base_);
  GENOC_REQUIRE(invalid.empty(), "invalid campaign base spec: " + invalid);
  GENOC_REQUIRE(base_.is_grid(),
                "fault campaigns are grid-only; '" + base_.topology +
                    "' has no link-fault model");
  GENOC_REQUIRE(base_.failed_links.empty(),
                "campaign base already declares failed links — faults are "
                "enumerated by the campaign, not stacked on a faulted base");
  // Enumerate fabric links from geometry alone: every existing directed
  // channel, canonicalized to its smaller endpoint and deduplicated, is one
  // bidirectional link. Terminal (L) links are not in the fault grammar.
  const bool wrap_x = base_.wrap_x();
  const bool wrap_y = base_.wrap_y();
  std::vector<LinkFault> faults;
  const std::int32_t nodes = base_.width * base_.height;
  for (std::int32_t node = 0; node < nodes; ++node) {
    for (const PortName name : {PortName::kEast, PortName::kWest,
                                PortName::kNorth, PortName::kSouth}) {
      const LinkFault fault{node, name};
      if (link_fault_exists(fault, base_.width, base_.height, wrap_x,
                            wrap_y)) {
        faults.push_back(canonical_link_fault(fault, base_.width,
                                              base_.height, wrap_x, wrap_y));
      }
    }
  }
  std::sort(faults.begin(), faults.end());
  faults.erase(std::unique(faults.begin(), faults.end()), faults.end());
  links_.reserve(faults.size());
  for (const LinkFault& fault : faults) {
    links_.push_back(link_fault_token(fault));
  }
}

std::size_t FaultModel::variant_count(const FaultPlan& plan) const {
  const std::size_t n = links_.size();
  switch (plan.kind) {
    case FaultPlan::Kind::kSingle:
      return n;
    case FaultPlan::Kind::kDouble:
      return n * (n - 1) / 2;
    case FaultPlan::Kind::kRandom:
      GENOC_REQUIRE(plan.count <= n,
                    "random fault plan draws " + std::to_string(plan.count) +
                        " links but the base has only " + std::to_string(n));
      return 1;
  }
  return 0;
}

InstanceSpec FaultModel::variant(const FaultPlan& plan,
                                 std::size_t index) const {
  GENOC_REQUIRE(index < variant_count(plan),
                "variant index " + std::to_string(index) +
                    " is past the plan's variants");
  std::vector<std::string> failed;
  switch (plan.kind) {
    case FaultPlan::Kind::kSingle:
      failed = {links_[index]};
      break;
    case FaultPlan::Kind::kDouble: {
      // Pairs (i, j > i) are numbered row by row: row i starts at
      // first(i) = i * (2n - i - 1) / 2. Solve first(i) <= index for the
      // largest i in floating point, then correct the rounding.
      const std::size_t n = links_.size();
      const auto first = [n](std::size_t i) { return i * (2 * n - i - 1) / 2; };
      const double b = 2.0 * static_cast<double>(n) - 1.0;
      const double root = std::sqrt(std::max(
          0.0, b * b - 8.0 * static_cast<double>(index)));
      auto i = static_cast<std::size_t>(std::max(0.0, (b - root) / 2.0));
      i = std::min(i, n - 2);
      while (i > 0 && first(i) > index) {
        --i;
      }
      while (i + 1 < n - 1 && first(i + 1) <= index) {
        ++i;
      }
      failed = {links_[i], links_[i + 1 + (index - first(i))]};
      break;
    }
    case FaultPlan::Kind::kRandom: {
      Rng rng(plan.seed);
      const std::vector<std::size_t> order = rng.permutation(links_.size());
      for (std::size_t i = 0; i < plan.count; ++i) {
        failed.push_back(links_[order[i]]);
      }
      break;
    }
  }
  // The preset name is cleared so each variant's display name is its
  // canonical spec string (fault set included) instead of N copies of the
  // base's name.
  InstanceSpec result = base_.with_failed_links(failed);
  result.name.clear();
  return result;
}

std::vector<InstanceSpec> FaultModel::variants(const FaultPlan& plan) const {
  const std::size_t count = variant_count(plan);
  std::vector<InstanceSpec> result;
  result.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    result.push_back(variant(plan, i));
  }
  return result;
}

}  // namespace genoc
