// log_line thread-safety: pool workers log concurrently (GENOC_LOG from
// escape shards and artifact computes), so lines must reach stderr whole —
// never interleaved mid-record — and none may be lost.
#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "log.hpp"

namespace genoc {
namespace {

TEST(LogThreadSafe, ConcurrentInfoLinesNeverInterleaveOrDrop) {
  const LogLevel previous = log_level();
  set_log_level(LogLevel::kInfo);
  testing::internal::CaptureStderr();

  constexpr int kThreads = 8;
  constexpr int kLinesPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int line = 0; line < kLinesPerThread; ++line) {
        GENOC_INFO("worker " << t << " line " << line);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const std::string captured = testing::internal::GetCapturedStderr();
  set_log_level(previous);

  // Every captured line must be one complete log record; a torn write
  // would produce a fragment (or a doubled prefix) that fails the match.
  const std::regex record(R"(^\[genoc INFO \] worker [0-7] line \d+$)");
  std::istringstream lines(captured);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(std::regex_match(line, record))
        << "torn or foreign log line: '" << line << "'";
    ++count;
  }
  EXPECT_EQ(count, kThreads * kLinesPerThread);
}

}  // namespace
}  // namespace genoc
