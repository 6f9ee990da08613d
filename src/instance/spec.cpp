#include "instance/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>
#include <tuple>

#include "topology/mesh.hpp"
#include "topology/topology.hpp"
#include "workload/traffic.hpp"

namespace genoc {

namespace {

std::string normalize(std::string value) {
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  std::replace(value.begin(), value.end(), '-', '_');
  return value;
}

bool contains(const std::vector<std::string>& values,
              const std::string& value) {
  return std::find(values.begin(), values.end(), value) != values.end();
}

/// Parses an unsigned integer in [lo, hi]; complains into *error.
bool parse_uint(const std::string& key, const std::string& value,
                std::uint64_t lo, std::uint64_t hi, std::uint64_t* out,
                std::string* error) {
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    *error = "bad value for " + key + ": '" + value + "' is not a number";
    return false;
  }
  if (parsed < lo || parsed > hi) {
    *error = "bad value for " + key + ": " + value + " is outside [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  *out = parsed;
  return true;
}

/// Parses `size=N` (square) or `size=WxH`.
bool parse_size(const std::string& value, InstanceSpec* spec,
                std::string* error) {
  const std::size_t cross = value.find('x');
  std::uint64_t w = 0;
  std::uint64_t h = 0;
  if (cross == std::string::npos) {
    if (!parse_uint("size", value, 1, 512, &w, error)) {
      return false;
    }
    h = w;
  } else {
    if (!parse_uint("size", value.substr(0, cross), 1, 512, &w, error) ||
        !parse_uint("size", value.substr(cross + 1), 1, 512, &h, error)) {
      return false;
    }
  }
  spec->width = static_cast<std::int32_t>(w);
  spec->height = static_cast<std::int32_t>(h);
  return true;
}

/// Splits the comma-separated value of a `failed=` token. Empty segments
/// (trailing or doubled commas) surface as empty tokens the per-token
/// parser rejects with a precise message.
std::vector<std::string> split_failed_links(const std::string& value) {
  std::vector<std::string> tokens;
  std::size_t begin = 0;
  while (begin <= value.size()) {
    const std::size_t comma = value.find(',', begin);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    tokens.push_back(value.substr(begin, end - begin));
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return tokens;
}

/// The registered topology family names, comma-joined for error messages.
std::string family_name_list() {
  std::string joined;
  for (const TopologyFamilyInfo& family : topology_families()) {
    if (!joined.empty()) {
      joined += ", ";
    }
    joined += family.name;
  }
  return joined;
}

}  // namespace

const std::vector<std::string>& known_topologies() {
  static const std::vector<std::string> values = [] {
    std::vector<std::string> names;
    for (const TopologyFamilyInfo& family : topology_families()) {
      names.push_back(family.name);
    }
    return names;
  }();
  return values;
}

const std::vector<std::string>& known_routings() {
  static const std::vector<std::string> values = {
      "xy",         "yx",             "torus_xy", "west_first",
      "north_last", "negative_first", "odd_even", "fully_adaptive",
      "cmesh_dor",  "dragonfly_min"};
  return values;
}

const std::vector<std::string>& known_switchings() {
  static const std::vector<std::string> values = {"wormhole",
                                                  "store_forward"};
  return values;
}

const std::vector<std::string>& turn_model_routings() {
  static const std::vector<std::string> values = {
      "west_first", "north_last", "negative_first", "odd_even"};
  return values;
}

std::optional<InstanceSpec> parse_instance_spec(const std::string& text,
                                                std::string* error) {
  InstanceSpec spec;
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  std::istringstream tokens(text);
  std::string token;
  std::vector<std::string> keys;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      *err = "malformed token '" + token + "': expected key=value";
      return std::nullopt;
    }
    const std::string key = normalize(token.substr(0, eq));
    const std::string raw = token.substr(eq + 1);
    // A repeated key would silently drop the earlier value (a second
    // failed= list, a second routing=), so it is an error.
    if (contains(keys, key)) {
      *err = "key '" + key + "' given twice (each key may appear once)";
      return std::nullopt;
    }
    keys.push_back(key);
    std::uint64_t number = 0;
    if (key == "topology") {
      spec.topology = normalize(raw);
      if (!contains(known_topologies(), spec.topology)) {
        *err = "unknown topology '" + raw +
               "' (registered families: " + family_name_list() + ")";
        return std::nullopt;
      }
    } else if (key == "size") {
      if (!parse_size(normalize(raw), &spec, err)) {
        return std::nullopt;
      }
    } else if (key == "width") {
      if (!parse_uint(key, raw, 1, 512, &number, err)) {
        return std::nullopt;
      }
      spec.width = static_cast<std::int32_t>(number);
    } else if (key == "height") {
      if (!parse_uint(key, raw, 1, 512, &number, err)) {
        return std::nullopt;
      }
      spec.height = static_cast<std::int32_t>(number);
    } else if (key == "routing") {
      spec.routing = normalize(raw);
      if (!contains(known_routings(), spec.routing)) {
        *err = "unknown routing '" + raw + "'";
        return std::nullopt;
      }
    } else if (key == "switching") {
      std::string value = normalize(raw);
      if (value == "sf" || value == "store_and_forward") {
        value = "store_forward";
      }
      spec.switching = value;
      if (!contains(known_switchings(), spec.switching)) {
        *err = "unknown switching '" + raw +
               "' (try: wormhole, store_forward)";
        return std::nullopt;
      }
    } else if (key == "buffers") {
      if (!parse_uint(key, raw, 1, 64, &number, err)) {
        return std::nullopt;
      }
      spec.buffers = static_cast<std::uint32_t>(number);
    } else if (key == "concentration") {
      if (!parse_uint(key, raw, 1, 8, &number, err)) {
        return std::nullopt;
      }
      spec.concentration = static_cast<std::uint32_t>(number);
    } else if (key == "routers") {
      if (!parse_uint(key, raw, 2, 16, &number, err)) {
        return std::nullopt;
      }
      spec.df_routers = static_cast<std::uint32_t>(number);
    } else if (key == "globals") {
      if (!parse_uint(key, raw, 1, 8, &number, err)) {
        return std::nullopt;
      }
      spec.df_globals = static_cast<std::uint32_t>(number);
    } else if (key == "terminals") {
      if (!parse_uint(key, raw, 1, 8, &number, err)) {
        return std::nullopt;
      }
      spec.df_terminals = static_cast<std::uint32_t>(number);
    } else if (key == "groups") {
      if (!parse_uint(key, raw, 2, 129, &number, err)) {
        return std::nullopt;
      }
      spec.df_groups = static_cast<std::uint32_t>(number);
    } else if (key == "expect") {
      const std::string value = normalize(raw);
      if (value == "free" || value == "deadlock_free") {
        spec.expect_deadlock_free = true;
      } else if (value == "deadlock" || value == "cycle") {
        spec.expect_deadlock_free = false;
      } else {
        *err = "bad value for expect: '" + raw + "' (try: free, deadlock)";
        return std::nullopt;
      }
    } else if (key == "escape") {
      const std::string value = normalize(raw);
      spec.escape = value == "none" ? "" : value;
      if (!spec.escape.empty() && !contains(known_routings(), spec.escape)) {
        *err = "unknown escape routing '" + raw + "'";
        return std::nullopt;
      }
    } else if (key == "failed") {
      // Tokens are syntax-checked here and canonicalized after the loop
      // (the geometry keys they canonicalize against may come later).
      spec.failed_links.clear();
      if (normalize(raw) != "none") {
        for (const std::string& fault_token : split_failed_links(raw)) {
          if (!parse_link_fault(fault_token, err)) {
            return std::nullopt;
          }
          spec.failed_links.push_back(fault_token);
        }
      }
    } else if (key == "pattern") {
      const auto pattern = parse_traffic_pattern(normalize(raw));
      if (!pattern) {
        *err = "unknown pattern '" + raw + "'";
        return std::nullopt;
      }
      spec.pattern = traffic_pattern_name(*pattern);
    } else if (key == "messages") {
      if (!parse_uint(key, raw, 0, 1000000, &number, err)) {
        return std::nullopt;
      }
      spec.messages = static_cast<std::uint32_t>(number);
    } else if (key == "flits") {
      if (!parse_uint(key, raw, 1, 1024, &number, err)) {
        return std::nullopt;
      }
      spec.flits = static_cast<std::uint32_t>(number);
    } else if (key == "seed") {
      if (!parse_uint(key, raw, 0, UINT64_MAX, &number, err)) {
        return std::nullopt;
      }
      spec.seed = number;
    } else {
      *err = "unknown key '" + key +
             "' (known: topology size width height concentration routers "
             "globals terminals groups routing switching buffers escape "
             "failed expect pattern messages flits seed)";
      return std::nullopt;
    }
  }
  if (keys.empty()) {
    *err = "empty instance spec";
    return std::nullopt;
  }
  // Canonicalize the fault set against the FINAL geometry so equal fault
  // sets parse to equal specs (and equal artifact-store keys) regardless
  // of token order or which channel endpoint named each link.
  if (!spec.failed_links.empty()) {
    spec = spec.with_failed_links(spec.failed_links);
  }
  const std::string invalid = validate_spec(spec);
  if (!invalid.empty()) {
    *err = invalid;
    return std::nullopt;
  }
  return spec;
}

std::string to_spec_string(const InstanceSpec& spec) {
  std::ostringstream os;
  os << "topology=" << spec.topology;
  if (spec.topology == "dragonfly") {
    os << " routers=" << spec.df_routers << " globals=" << spec.df_globals
       << " terminals=" << spec.df_terminals;
    if (spec.df_groups != 0) {
      os << " groups=" << spec.df_groups;
    }
  } else {
    os << " size=" << spec.width << "x" << spec.height;
    if (spec.topology == "cmesh") {
      os << " concentration=" << spec.concentration;
    }
  }
  os << " routing=" << spec.routing << " switching=" << spec.switching
     << " buffers=" << spec.buffers;
  if (!spec.escape.empty()) {
    os << " escape=" << spec.escape;
  }
  if (!spec.failed_links.empty()) {
    os << " failed=" << join_failed_links(spec.failed_links);
  }
  if (!spec.expect_deadlock_free) {
    os << " expect=deadlock";
  }
  os << " pattern=" << spec.pattern << " messages=" << spec.messages
     << " flits=" << spec.flits << " seed=" << spec.seed;
  return os.str();
}

std::string display_name(const InstanceSpec& spec) {
  return spec.name.empty() ? to_spec_string(spec) : spec.name;
}

std::string join_failed_links(const std::vector<std::string>& links) {
  std::string joined;
  for (const std::string& token : links) {
    if (!joined.empty()) {
      joined += ",";
    }
    joined += token;
  }
  return joined;
}

InstanceSpec InstanceSpec::with_failed_links(
    const std::vector<std::string>& links) const {
  InstanceSpec result = *this;
  result.failed_links.clear();
  result.failed_links.reserve(links.size());
  // Sort key: parsed tokens by their canonical (node, name) pair, with the
  // rendered token as tiebreaker; unparsable tokens sort after every valid
  // one (lexicographically) and survive verbatim for validate_spec to
  // reject with a real message.
  std::vector<std::tuple<int, std::int32_t, int, std::string>> keyed;
  keyed.reserve(links.size());
  for (const std::string& token : links) {
    const std::optional<LinkFault> fault = parse_link_fault(token, nullptr);
    if (!fault) {
      keyed.emplace_back(1, 0, 0, token);
      continue;
    }
    const LinkFault canonical = canonical_link_fault(
        *fault, width, height, wrap_x(), wrap_y());
    keyed.emplace_back(0, canonical.node, static_cast<int>(canonical.name),
                       link_fault_token(canonical));
  }
  std::sort(keyed.begin(), keyed.end());
  for (const auto& [unparsable, node, name, token] : keyed) {
    result.failed_links.push_back(token);
  }
  return result;
}

std::string validate_spec(const InstanceSpec& spec) {
  if (!contains(known_topologies(), spec.topology)) {
    return "unknown topology '" + spec.topology +
           "' (registered families: " + family_name_list() + ")";
  }
  if (spec.topology != "dragonfly") {
    if (spec.width < 1 || spec.width > 512 || spec.height < 1 ||
        spec.height > 512) {
      return "dimensions must be within 1..512";
    }
    if (static_cast<std::int64_t>(spec.width) * spec.height < 2) {
      return "a 1x1 network has no interconnect to verify";
    }
  }
  if (spec.wrap_x() && spec.width < 2) {
    return "wrapping x requires width >= 2";
  }
  if (spec.wrap_y() && spec.height < 2) {
    return "wrapping y requires height >= 2";
  }
  if (!contains(known_routings(), spec.routing)) {
    return "unknown routing '" + spec.routing + "'";
  }
  if (spec.routing == "torus_xy" && !spec.wrap_x() && !spec.wrap_y()) {
    return "routing torus_xy requires a wrapped topology (torus or ring)";
  }
  // Each non-grid family pairs with its own routing function, and the grid
  // functions speak the Port tuple only a grid provides.
  if (spec.topology == "cmesh" && spec.routing != "cmesh_dor") {
    return "topology cmesh requires routing cmesh_dor";
  }
  if (spec.topology == "dragonfly" && spec.routing != "dragonfly_min") {
    return "topology dragonfly requires routing dragonfly_min";
  }
  if (spec.routing == "cmesh_dor" && spec.topology != "cmesh") {
    return "routing cmesh_dor requires topology cmesh";
  }
  if (spec.routing == "dragonfly_min" && spec.topology != "dragonfly") {
    return "routing dragonfly_min requires topology dragonfly";
  }
  if (spec.topology == "cmesh" &&
      (spec.concentration < 1 || spec.concentration > 8)) {
    return "concentration must be within 1..8";
  }
  if (spec.topology == "dragonfly") {
    if (spec.df_routers < 2 || spec.df_routers > 16) {
      return "routers must be within 2..16";
    }
    if (spec.df_globals < 1 || spec.df_globals > 8) {
      return "globals must be within 1..8";
    }
    if (spec.df_terminals < 1 || spec.df_terminals > 8) {
      return "terminals must be within 1..8";
    }
    const std::uint32_t max_groups = spec.df_routers * spec.df_globals + 1;
    if (spec.df_groups_resolved() < 2 ||
        spec.df_groups_resolved() > max_groups) {
      return "groups must be within 2.." + std::to_string(max_groups) +
             " (routers*globals+1)";
    }
  }
  if (!spec.failed_links.empty()) {
    if (!spec.is_grid()) {
      return "failed links are grid-only (faults name mesh/torus/ring "
             "channels)";
    }
    if (spec.failed_links.size() > 4096) {
      return "at most 4096 failed links per instance";
    }
    std::vector<LinkFault> links;  // canonical
    links.reserve(spec.failed_links.size());
    for (const std::string& token : spec.failed_links) {
      std::string fault_error;
      const std::optional<LinkFault> fault =
          parse_link_fault(token, &fault_error);
      if (!fault) {
        return fault_error;
      }
      if (!link_fault_exists(*fault, spec.width, spec.height, spec.wrap_x(),
                             spec.wrap_y())) {
        return "failed link '" + token + "' does not exist in a " +
               std::to_string(spec.width) + "x" + std::to_string(spec.height) +
               " " + spec.topology + " (node out of range or boundary port)";
      }
      links.push_back(canonical_link_fault(*fault, spec.width, spec.height,
                                           spec.wrap_x(), spec.wrap_y()));
    }
    // A repeated link would get an artifact key of its own, yet verify the
    // deduplicated fault set; like a repeated key, it is an error.
    std::sort(links.begin(), links.end());
    const auto repeated = std::adjacent_find(links.begin(), links.end());
    if (repeated != links.end()) {
      return "failed link '" + link_fault_token(*repeated) +
             "' is named more than once (both endpoints of a channel name "
             "the same physical link)";
    }
  }
  if (!spec.escape.empty() && !spec.is_grid()) {
    return "escape lanes are grid-only (the Duato analysis runs over the "
           "Port tuple)";
  }
  if (!spec.escape.empty() && spec.escape != "xy" && spec.escape != "yx") {
    return "escape must be a deterministic deadlock-free routing (xy or yx)";
  }
  if (!contains(known_switchings(), spec.switching)) {
    return "unknown switching '" + spec.switching + "'";
  }
  if (!parse_traffic_pattern(spec.pattern)) {
    return "unknown pattern '" + spec.pattern + "'";
  }
  if (spec.buffers < 1 || spec.buffers > 64) {
    return "buffers must be within 1..64";
  }
  if (spec.flits < 1 || spec.flits > 1024) {
    return "flits must be within 1..1024";
  }
  if (spec.switching == "store_forward" && spec.flits > spec.buffers) {
    return "store_forward needs flits <= buffers (whole-packet buffering)";
  }
  return "";
}

}  // namespace genoc
