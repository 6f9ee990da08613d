/// \file json_writer.hpp
/// \brief Minimal JSON object serializer for the machine-readable outputs
///        of the `genoc` driver (verify/analyze/campaign/sim reports).
///
/// Dependency-free on purpose: the container bakes no JSON library, and the
/// outputs are flat-ish records a hand-rolled writer covers comfortably.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace genoc::cli {

/// Append-only JSON object builder. Fields keep insertion order; nesting is
/// supported by adding a fully-built child as a raw value.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::int64_t value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, bool value);
  /// Adds \p json verbatim (an already-serialized object or array).
  JsonObject& add_raw(const std::string& key, const std::string& json);

  /// Serializes with 2-space indentation and a trailing newline.
  std::string to_string() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& text);

/// Serializes a list of pre-serialized objects as a JSON array.
std::string json_array(const std::vector<std::string>& elements);

/// Formats a double as a JSON number (finite; NaN/inf become 0).
std::string json_number(double value);

}  // namespace genoc::cli
