#include "log.hpp"

#include <iostream>
#include <mutex>

namespace genoc {

namespace {
LogLevel g_level = LogLevel::kWarn;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }

LogLevel log_level() { return g_level; }

void log_line(LogLevel level, const std::string& message) {
  if (level < g_level || level == LogLevel::kOff) {
    return;
  }
  // Pool workers log concurrently; format the whole line first and hold a
  // mutex across the single stream write so lines never interleave
  // mid-record.
  std::string line;
  line.reserve(message.size() + 16);
  line += "[genoc ";
  line += level_name(level);
  line += "] ";
  line += message;
  line += '\n';
  static std::mutex emit_mutex;
  std::lock_guard<std::mutex> lock(emit_mutex);
  std::cerr << line;
}

}  // namespace genoc
