/// \file log.hpp
/// \brief Tiny leveled logger. Defaults to warnings-and-above. No library
///        module logs, so it lives next to its tests (test_util,
///        test_log_threadsafe).
#pragma once

#include <sstream>
#include <string>

namespace genoc {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level that is actually emitted.
void set_log_level(LogLevel level);

/// Current global minimum level.
LogLevel log_level();

/// Emits one line to stderr if \p level passes the global threshold.
void log_line(LogLevel level, const std::string& message);

}  // namespace genoc

#define GENOC_LOG(level, expr)                          \
  do {                                                  \
    if ((level) >= ::genoc::log_level()) {              \
      std::ostringstream genoc_log_os;                  \
      genoc_log_os << expr;                             \
      ::genoc::log_line((level), genoc_log_os.str());   \
    }                                                   \
  } while (false)

#define GENOC_DEBUG(expr) GENOC_LOG(::genoc::LogLevel::kDebug, expr)
#define GENOC_INFO(expr) GENOC_LOG(::genoc::LogLevel::kInfo, expr)
#define GENOC_WARN(expr) GENOC_LOG(::genoc::LogLevel::kWarn, expr)
#define GENOC_ERROR(expr) GENOC_LOG(::genoc::LogLevel::kError, expr)
