// Tests for the CLI support layer: round-trip JSON number formatting (the
// report timing-field contract) and the hardened integer flag
// parsing (malformed values surface as errors, never as silent defaults).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "cli/json_writer.hpp"

namespace genoc::cli {
namespace {

double reparse(const std::string& text) {
  return std::strtod(text.c_str(), nullptr);
}

TEST(JsonNumber, RoundTripsLargeNsPerOpValues) {
  // The regression this guards: %.6g collapsed every ns/op >= 1e6 (the
  // 64x64-class benchmarks) to six significant digits, so the JSON
  // artifacts drifted from the measured values.
  const std::vector<double> values = {
      2312419276.75,     // ~2.3 s/op in ns — the escape 64x64 scale
      184467440.125,     // 64x64 depgraph scale
      1048576.0 + 0.25,  // just past the %.6g cliff
      1e15 + 1.0,
  };
  for (const double value : values) {
    EXPECT_EQ(reparse(json_number(value)), value) << json_number(value);
  }
}

TEST(JsonNumber, KeepsShortFormsWhenExact) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(0.5), "0.5");
  EXPECT_EQ(json_number(-3.25), "-3.25");
  EXPECT_EQ(json_number(123456.0), "123456");
}

TEST(JsonNumber, RoundTripsArbitraryDoubles) {
  // Deterministic LCG sweep over magnitudes; every emitted literal must
  // parse back to the exact bit pattern.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 1000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double mantissa =
        static_cast<double>(state >> 11) / static_cast<double>(1ull << 53);
    const int exponent = static_cast<int>(state % 61) - 30;
    const double value = std::ldexp(mantissa + 1.0, exponent);
    EXPECT_EQ(reparse(json_number(value)), value) << json_number(value);
  }
}

TEST(JsonNumber, NonFiniteBecomesZero) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonObject, EmitsFieldsInOrder) {
  JsonObject obj;
  obj.add("name", "escape_parallel_64x64")
      .add("ns_per_op", 2312419276.75)
      .add("ok", true);
  const std::string text = obj.to_string();
  EXPECT_NE(text.find("\"name\": \"escape_parallel_64x64\""),
            std::string::npos);
  EXPECT_NE(text.find("2312419276.75"), std::string::npos);
  EXPECT_LT(text.find("name"), text.find("ns_per_op"));
}

Args make_args(std::vector<std::string> tokens) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  static std::vector<char*> argv;
  argv.clear();
  argv.push_back(const_cast<char*>("genoc"));
  for (std::string& token : storage) {
    argv.push_back(token.data());
  }
  return Args(static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(Args, RejectsGarbageIntegers) {
  const Args args = make_args({"--threads", "banana"});
  EXPECT_EQ(args.get_int_in("threads", 0, 0, 256), 0);
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("--threads"), std::string::npos);
}

TEST(Args, RejectsTrailingGarbage) {
  const Args args = make_args({"--threads", "4abc"});
  args.get_int_in("threads", 0, 0, 256);
  EXPECT_EQ(args.errors().size(), 1u);
}

TEST(Args, RejectsNegativesOutOfRange) {
  const Args args = make_args({"--threads", "-4"});
  EXPECT_EQ(args.get_int_in("threads", 0, 0, 256), 0);
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("[0, 256]"), std::string::npos);
}

TEST(Args, RejectsOverflow) {
  const Args args = make_args({"--seed", "99999999999999999999999"});
  args.get_int_in("seed", 2010, 0, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(args.errors().size(), 1u);
}

TEST(Args, AcceptsValidIntegersAndFlags) {
  const Args args = make_args({"--threads", "8", "--sequential"});
  EXPECT_EQ(args.get_int_in("threads", 0, 0, 256), 8);
  EXPECT_TRUE(args.has("sequential"));
  EXPECT_TRUE(args.errors().empty());
  EXPECT_TRUE(args.unknown_flags().empty());
}

}  // namespace
}  // namespace genoc::cli
