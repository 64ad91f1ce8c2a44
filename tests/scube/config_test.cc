#include "scube/config.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

namespace scube {
namespace pipeline {
namespace {

TEST(ConfigTest, EmptyTextYieldsDefaults) {
  auto config = ParsePipelineConfig("");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->unit_source, UnitSource::kGroupClusters);
  EXPECT_EQ(config->method, ClusterMethod::kThreshold);
  EXPECT_EQ(config->cube.min_support, 1u);
}

TEST(ConfigTest, ParsesAllKeys) {
  auto config = ParsePipelineConfig(R"(
# SCube analysis configuration
unit_source = group-attribute
group_unit_attribute = hq_province
date = 2010
method = stoc
threshold.min_weight = 3.5
threshold.giant_only = false
stoc.tau = 0.4
stoc.alpha = 0.7
stoc.max_radius = 3
projection.hub_cap = 25
projection.min_weight = 2
cube.min_support = 42
cube.min_support_fraction = 0.01
cube.max_sa_items = 3
cube.max_ca_items = 2
cube.mode = all
cube.atkinson_b = 0.25
cube.num_threads = 4
)");
  ASSERT_TRUE(config.ok()) << config.status();
  EXPECT_EQ(config->unit_source, UnitSource::kGroupAttribute);
  EXPECT_EQ(config->group_unit_attribute, "hq_province");
  EXPECT_EQ(config->date, 2010);
  EXPECT_EQ(config->method, ClusterMethod::kStoc);
  EXPECT_DOUBLE_EQ(config->threshold.min_weight, 3.5);
  EXPECT_FALSE(config->threshold.giant_only);
  EXPECT_DOUBLE_EQ(config->stoc.tau, 0.4);
  EXPECT_DOUBLE_EQ(config->stoc.alpha, 0.7);
  EXPECT_EQ(config->stoc.max_radius, 3u);
  EXPECT_EQ(config->projection.hub_cap, 25u);
  EXPECT_DOUBLE_EQ(config->projection.min_weight, 2.0);
  EXPECT_EQ(config->cube.min_support, 42u);
  EXPECT_DOUBLE_EQ(config->cube.min_support_fraction, 0.01);
  EXPECT_EQ(config->cube.max_sa_items, 3u);
  EXPECT_EQ(config->cube.max_ca_items, 2u);
  EXPECT_EQ(config->cube.mode, fpm::MineMode::kAll);
  EXPECT_DOUBLE_EQ(config->cube.index_params.atkinson_b, 0.25);
  EXPECT_EQ(config->cube.num_threads, 4u);
}

TEST(ConfigTest, RejectsUnknownKey) {
  auto config = ParsePipelineConfig("frobnicate = 7\n");
  EXPECT_EQ(config.status().code(), StatusCode::kNotFound);
}

TEST(ConfigTest, RejectsMalformedLine) {
  auto config = ParsePipelineConfig("unit_source group-clusters\n");
  EXPECT_EQ(config.status().code(), StatusCode::kParseError);
}

TEST(ConfigTest, RejectsBadValues) {
  EXPECT_FALSE(ParsePipelineConfig("unit_source = galaxy\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("method = k-means\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.mode = some\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.min_support = 0\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.min_support = banana\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("threshold.giant_only = maybe\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("stoc.max_radius = -1\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.num_threads = -2\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.num_threads = many\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("cube.max_ca_items = 4294967296\n").ok());
  EXPECT_FALSE(ParsePipelineConfig("stoc.max_radius = 4294967297\n").ok());
  auto too_big = ParsePipelineConfig("cube.max_ca_items = 4294967296\n");
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_big.status().message().find("cube.max_ca_items"),
            std::string::npos);
  auto largest = ParsePipelineConfig("cube.max_ca_items = 4294967295\n");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->cube.max_ca_items, 4294967295u);

  // Non-finite doubles and values outside the documented ranges are
  // InvalidArgument naming the key. (min_support_fraction = inf used to
  // reach an undefined double-to-integer cast in the builder.)
  const char* kBadDoubles[][2] = {
      {"cube.atkinson_b", "nan"},
      {"cube.atkinson_b", "0"},
      {"cube.atkinson_b", "1"},
      {"cube.atkinson_b", "2"},
      {"cube.atkinson_b", "-inf"},
      {"stoc.tau", "7"},
      {"stoc.tau", "-0.01"},
      {"stoc.tau", "nan"},
      {"stoc.alpha", "-1"},
      {"stoc.alpha", "1.5"},
      {"cube.min_support_fraction", "inf"},
      {"cube.min_support_fraction", "nan"},
      {"cube.min_support_fraction", "-0.5"},
      {"cube.min_support_fraction", "1e300"},
      {"threshold.min_weight", "nan"},
      {"threshold.min_weight", "inf"},
      {"projection.min_weight", "-inf"},
      {"projection.min_weight", "NAN"},
  };
  for (const auto& [key, value] : kBadDoubles) {
    auto bad = ParsePipelineConfig(std::string(key) + " = " + value + "\n");
    ASSERT_FALSE(bad.ok()) << key << " = " << value;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
        << key << " = " << value << ": " << bad.status();
    EXPECT_NE(bad.status().message().find(key), std::string::npos)
        << bad.status();
  }
  // The ends of the closed ranges are valid.
  auto ends = ParsePipelineConfig(
      "stoc.tau = 0\nstoc.alpha = 1\ncube.min_support_fraction = 1\n"
      "cube.atkinson_b = 0.999\nthreshold.min_weight = -3\n");
  ASSERT_TRUE(ends.ok()) << ends.status();
  EXPECT_EQ(ends->stoc.tau, 0.0);
  EXPECT_EQ(ends->stoc.alpha, 1.0);
  EXPECT_EQ(ends->cube.min_support_fraction, 1.0);
}

TEST(ConfigTest, ErrorsCarryLineNumbers) {
  auto config = ParsePipelineConfig("date = 2000\nbad_key = 1\n");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("line 2"), std::string::npos);
}

TEST(ConfigTest, RoundTripThroughToString) {
  PipelineConfig original;
  original.unit_source = UnitSource::kIndividualClusters;
  original.method = ClusterMethod::kLouvain;
  original.date = 1999;
  original.cube.min_support = 77;
  original.cube.mode = fpm::MineMode::kMaximal;
  original.cube.num_threads = 8;
  original.stoc.tau = 0.35;
  // Values that fixed-point text used to round: 4e-7 printed as 0.000000
  // and switched the relative threshold off.
  original.cube.min_support_fraction = 4e-7;
  original.cube.index_params.atkinson_b = 0.3333;
  original.threshold.min_weight = 2.0004;
  original.stoc.alpha = 1.0 / 3.0;
  original.projection.min_weight = 1e-300;

  auto parsed = ParsePipelineConfig(PipelineConfigToString(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->unit_source, original.unit_source);
  EXPECT_EQ(parsed->method, original.method);
  EXPECT_EQ(parsed->date, original.date);
  EXPECT_EQ(parsed->cube.min_support, original.cube.min_support);
  EXPECT_EQ(parsed->cube.mode, original.cube.mode);
  EXPECT_EQ(parsed->cube.num_threads, original.cube.num_threads);
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  EXPECT_EQ(bits(parsed->stoc.tau), bits(original.stoc.tau));
  EXPECT_EQ(bits(parsed->stoc.alpha), bits(original.stoc.alpha));
  EXPECT_EQ(bits(parsed->cube.min_support_fraction),
            bits(original.cube.min_support_fraction));
  EXPECT_EQ(bits(parsed->cube.index_params.atkinson_b),
            bits(original.cube.index_params.atkinson_b));
  EXPECT_EQ(bits(parsed->threshold.min_weight),
            bits(original.threshold.min_weight));
  EXPECT_EQ(bits(parsed->projection.min_weight),
            bits(original.projection.min_weight));

  // Subnormals print as texts whose strtod underflows (ERANGE); they must
  // still read back bit for bit.
  original.projection.min_weight = 5e-324;
  original.threshold.min_weight = 1e-310;
  parsed = ParsePipelineConfig(PipelineConfigToString(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(bits(parsed->projection.min_weight),
            bits(original.projection.min_weight));
  EXPECT_EQ(bits(parsed->threshold.min_weight),
            bits(original.threshold.min_weight));
}

TEST(ConfigTest, CommentsAndBlanksIgnored) {
  auto config = ParsePipelineConfig(
      "# comment\n\n   \n# another\ndate = 5\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->date, 5);
}

}  // namespace
}  // namespace pipeline
}  // namespace scube
