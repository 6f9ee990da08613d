// Spec-parser tests: the booksim2-style `key=value` grammar that makes
// arbitrary instances constructible from the CLI. Round-trip fidelity,
// normalization of spelling variants, and precise rejection messages are
// the contract — `genoc verify --instance` maps a parse failure to exit 2
// by printing exactly the message checked here.
#include <gtest/gtest.h>

#include <algorithm>

#include "instance/spec.hpp"
#include "workload/traffic.hpp"

namespace genoc {
namespace {

InstanceSpec parse_ok(const std::string& text) {
  std::string error;
  const auto spec = parse_instance_spec(text, &error);
  EXPECT_TRUE(spec.has_value()) << "'" << text << "' rejected: " << error;
  return spec.value_or(InstanceSpec{});
}

std::string parse_err(const std::string& text) {
  std::string error;
  const auto spec = parse_instance_spec(text, &error);
  EXPECT_FALSE(spec.has_value()) << "'" << text << "' unexpectedly accepted";
  EXPECT_FALSE(error.empty()) << "rejection of '" << text
                              << "' carries no message";
  return error;
}

TEST(InstanceSpec, ParsesEveryKey) {
  const InstanceSpec spec = parse_ok(
      "topology=torus size=16x8 routing=odd_even switching=store_forward "
      "buffers=8 escape=xy pattern=transpose messages=99 flits=3 seed=7");
  EXPECT_EQ(spec.topology, "torus");
  EXPECT_EQ(spec.width, 16);
  EXPECT_EQ(spec.height, 8);
  EXPECT_EQ(spec.routing, "odd_even");
  EXPECT_EQ(spec.switching, "store_forward");
  EXPECT_EQ(spec.buffers, 8u);
  EXPECT_EQ(spec.escape, "xy");
  EXPECT_EQ(spec.pattern, "transpose");
  EXPECT_EQ(spec.messages, 99u);
  EXPECT_EQ(spec.flits, 3u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_TRUE(spec.wrap_x());
  EXPECT_TRUE(spec.wrap_y());
}

TEST(InstanceSpec, SizeForms) {
  EXPECT_EQ(parse_ok("size=8").width, 8);
  EXPECT_EQ(parse_ok("size=8").height, 8);
  const InstanceSpec rect = parse_ok("size=16x4");
  EXPECT_EQ(rect.width, 16);
  EXPECT_EQ(rect.height, 4);
  // width/height override size; later tokens win.
  const InstanceSpec late = parse_ok("size=8x8 width=6 height=3");
  EXPECT_EQ(late.width, 6);
  EXPECT_EQ(late.height, 3);
  EXPECT_EQ(parse_ok("width=6 size=8x8").width, 8);
}

TEST(InstanceSpec, NormalizesSpellingVariants) {
  EXPECT_EQ(parse_ok("routing=west-first size=4").routing, "west_first");
  EXPECT_EQ(parse_ok("routing=Odd_Even size=4").routing, "odd_even");
  EXPECT_EQ(parse_ok("switching=store-and-forward flits=2 buffers=2").switching,
            "store_forward");
  EXPECT_EQ(parse_ok("switching=sf flits=2 buffers=2").switching,
            "store_forward");
  EXPECT_EQ(parse_ok("pattern=bit_reversal").pattern, "bit-reversal");
  EXPECT_EQ(parse_ok("pattern=bitrev").pattern, "bit-reversal");
  EXPECT_EQ(parse_ok("pattern=uniform").pattern, "uniform-random");
  EXPECT_EQ(parse_ok("escape=none size=4").escape, "");
}

TEST(InstanceSpec, RoundTripsThroughCanonicalString) {
  const char* texts[] = {
      "topology=mesh size=4x4 routing=xy",
      "topology=torus size=8x8 routing=torus_xy escape=xy flits=2",
      "topology=ring size=5x3 routing=torus_xy escape=yx",
      "topology=mesh size=6x6 routing=fully_adaptive escape=xy "
      "pattern=hotspot messages=17 seed=99",
      "topology=mesh size=8x8 routing=xy switching=store_forward buffers=4",
  };
  for (const char* text : texts) {
    const InstanceSpec spec = parse_ok(text);
    const std::string canonical = to_spec_string(spec);
    const InstanceSpec again = parse_ok(canonical);
    EXPECT_EQ(spec, again) << "round trip changed '" << canonical << "'";
    EXPECT_EQ(canonical, to_spec_string(again));
  }
}

TEST(InstanceSpec, RejectsUnknownKeysAndValues) {
  EXPECT_NE(parse_err("topology=banana").find("unknown topology"),
            std::string::npos);
  EXPECT_NE(parse_err("routing=banana").find("unknown routing"),
            std::string::npos);
  EXPECT_NE(parse_err("switching=banana").find("unknown switching"),
            std::string::npos);
  EXPECT_NE(parse_err("pattern=banana").find("unknown pattern"),
            std::string::npos);
  EXPECT_NE(parse_err("escape=banana").find("unknown escape"),
            std::string::npos);
  const std::string unknown_key = parse_err("fnords=3");
  EXPECT_NE(unknown_key.find("unknown key"), std::string::npos);
  EXPECT_NE(unknown_key.find("fnords"), std::string::npos);
}

TEST(InstanceSpec, RejectsMalformedTokensAndNumbers) {
  EXPECT_NE(parse_err("").find("empty"), std::string::npos);
  EXPECT_NE(parse_err("mesh").find("key=value"), std::string::npos);
  EXPECT_NE(parse_err("size=").find("key=value"), std::string::npos);
  EXPECT_NE(parse_err("=8").find("key=value"), std::string::npos);
  EXPECT_NE(parse_err("width=abc").find("not a number"), std::string::npos);
  EXPECT_NE(parse_err("size=8xx8").find("not a number"), std::string::npos);
  EXPECT_NE(parse_err("width=-3").find("not a number"), std::string::npos);
  EXPECT_NE(parse_err("width=4096").find("outside"), std::string::npos);
  EXPECT_NE(parse_err("buffers=0").find("outside"), std::string::npos);
  EXPECT_NE(parse_err("flits=0").find("outside"), std::string::npos);
}

TEST(InstanceSpec, RejectsRepeatedKeys) {
  // Keeping the last value would drop the first failed link, or verify a
  // routing other than the first one named, without a word.
  const std::string faults = parse_err(
      "topology=mesh size=4x4 routing=xy failed=0:E failed=5:S");
  EXPECT_NE(faults.find("'failed' given twice"), std::string::npos) << faults;
  const std::string routing =
      parse_err("topology=mesh size=4x4 routing=xy routing=fully_adaptive");
  EXPECT_NE(routing.find("'routing' given twice"), std::string::npos)
      << routing;
  // The same value twice, and spelling variants of one key, count too.
  EXPECT_NE(parse_err("seed=1 seed=1").find("'seed'"), std::string::npos);
  EXPECT_NE(parse_err("Routing=xy routing=xy").find("'routing'"),
            std::string::npos);
  // size, width and height are different keys.
  EXPECT_EQ(parse_ok("size=8x8 width=6 height=3").width, 6);
}

TEST(InstanceSpec, RejectsRepeatedFailedLinks) {
  // One physical link named twice, by the same token or by both endpoints
  // of its channel, is rejected rather than verified as a fault set of its
  // own; hand-built specs get the same answer from validate_spec.
  for (const char* faults : {"0:E,0:E", "0:E,1:W", "1:W,0:E,5:S"}) {
    SCOPED_TRACE(faults);
    const std::string error = parse_err(
        std::string("topology=mesh size=4x4 routing=xy failed=") + faults);
    EXPECT_NE(error.find("'0:E' is named more than once"), std::string::npos)
        << error;
  }
  // On a torus the wrap channel's endpoints are 3:E and 0:W.
  EXPECT_NE(parse_err("topology=torus size=4x4 routing=torus_xy "
                      "failed=3:E,0:W")
                .find("more than once"),
            std::string::npos);
  InstanceSpec spec = parse_ok("topology=mesh size=4x4 routing=xy");
  spec.failed_links = {"0:E", "1:W"};
  EXPECT_NE(validate_spec(spec).find("more than once"), std::string::npos);
  // Distinct links stay valid.
  EXPECT_EQ(parse_ok("topology=mesh size=4x4 routing=xy failed=0:E,1:E")
                .failed_links.size(),
            2u);
}

TEST(InstanceSpec, ValidatesCrossFieldConsistency) {
  // torus_xy needs wrap links to route over.
  EXPECT_NE(parse_err("topology=mesh routing=torus_xy").find("torus_xy"),
            std::string::npos);
  // Wrapped dimensions need at least 2 nodes.
  EXPECT_NE(parse_err("topology=torus size=1x4 routing=torus_xy")
                .find("wrapping x"),
            std::string::npos);
  EXPECT_NE(parse_err("topology=torus width=4 height=1 routing=torus_xy")
                .find("wrapping y"),
            std::string::npos);
  // A ring only wraps x, so height 1 is fine but width 1 is not.
  EXPECT_TRUE(parse_ok("topology=ring size=4x1 routing=torus_xy escape=xy")
                  .wrap_x());
  // Escape lanes must be deterministic deadlock-free functions.
  EXPECT_NE(parse_err("size=4 escape=fully_adaptive").find("escape"),
            std::string::npos);
  EXPECT_NE(parse_err("size=4 escape=torus_xy").find("escape"),
            std::string::npos);
  // Store-and-forward cannot ever move packets longer than a buffer.
  EXPECT_NE(
      parse_err("switching=store_forward buffers=2 flits=4").find("flits"),
      std::string::npos);
  EXPECT_NE(parse_err("size=1x1").find("1x1"), std::string::npos);
}

TEST(InstanceSpec, ValidateSpecCatchesHandBuiltSpecs) {
  InstanceSpec spec;
  EXPECT_EQ(validate_spec(spec), "");
  spec.routing = "nonsense";
  EXPECT_FALSE(validate_spec(spec).empty());
  spec.routing = "xy";
  spec.pattern = "nonsense";
  EXPECT_FALSE(validate_spec(spec).empty());
}

TEST(InstanceSpec, TurnModelFamilyIsKnown) {
  for (const std::string& name : turn_model_routings()) {
    EXPECT_NE(std::find(known_routings().begin(), known_routings().end(),
                        name),
              known_routings().end())
        << name;
  }
  EXPECT_EQ(turn_model_routings().size(), 4u);
}

}  // namespace
}  // namespace genoc
