#include "cli/json_writer.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace genoc::cli {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  // Round-trip precision with the shortest representation that achieves
  // it: %.6g truncated every value needing more than 6 significant digits
  // (a wall time in ns >= 1e6 lost its low digits). 17 significant
  // digits always round-trip an IEEE-754 double; prefer fewer when the
  // shorter form parses back exactly.
  char buf[64];
  for (const int precision : {6, 15, 16, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

std::string json_array(const std::vector<std::string>& elements) {
  std::string out = "[";
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += elements[i];
  }
  out += "]";
  return out;
}

JsonObject& JsonObject::add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + json_escape(value) + "\"");
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

JsonObject& JsonObject::add(const std::string& key, double value) {
  fields_.emplace_back(key, json_number(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::add_raw(const std::string& key,
                                const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::to_string() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  \"" + json_escape(fields_[i].first) + "\": " + fields_[i].second;
    if (i + 1 != fields_.size()) {
      out += ",";
    }
    out += "\n";
  }
  out += "}\n";
  return out;
}

}  // namespace genoc::cli
