// End-to-end pipeline tests: the three demo scenarios (§4) on a small
// synthetic registry, plus temporal snapshots.

#include "scube/pipeline.h"

#include <gtest/gtest.h>

#include "cube/explorer.h"
#include "datagen/scenarios.h"

namespace scube {
namespace pipeline {
namespace {

datagen::GeneratedScenario SmallScenario() {
  datagen::ScenarioConfig config = datagen::ItalianConfig(0.001, 5);
  auto s = datagen::GenerateScenario(config);
  EXPECT_TRUE(s.ok()) << s.status();
  return std::move(s).value();
}

PipelineConfig BaseConfig() {
  PipelineConfig config;
  config.cube.min_support = 5;
  config.cube.mode = fpm::MineMode::kAll;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  return config;
}

TEST(PipelineTest, Scenario1TabularSectorUnits) {
  auto scenario = SmallScenario();
  PipelineConfig config = BaseConfig();
  config.unit_source = UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  auto result = RunPipeline(scenario.inputs, config);
  ASSERT_TRUE(result.ok()) << result.status();
  // Units = the 20 sectors.
  EXPECT_EQ(result->clustering.num_clusters, 20u);
  EXPECT_GT(result->cube.NumCells(), 10u);
  EXPECT_GT(result->cube.NumDefinedCells(), 0u);
  EXPECT_GT(result->final_table.NumRows(), 0u);
  // No projection ran.
  EXPECT_EQ(result->projected_edges, 0u);

  // The female cell must exist and carry sensible indexes.
  const cube::CubeView view = std::move(result->cube).Seal();
  const auto& cat = view.catalog();
  fpm::ItemId female = cat.Find("gender", "F");
  ASSERT_NE(female, fpm::kInvalidItem);
  const cube::CubeCell* cell =
      view.Find(fpm::Itemset({female}), fpm::Itemset());
  ASSERT_NE(cell, nullptr);
  ASSERT_TRUE(cell->indexes.defined);
  double d = cell->Value(indexes::IndexKind::kDissimilarity);
  // Planted sector bias must yield visible segregation.
  EXPECT_GT(d, 0.05);
  EXPECT_LT(d, 0.9);
}

TEST(PipelineTest, Scenario2DirectorCommunities) {
  auto scenario = SmallScenario();
  PipelineConfig config = BaseConfig();
  config.unit_source = UnitSource::kIndividualClusters;
  config.method = ClusterMethod::kConnectedComponents;
  auto result = RunPipeline(scenario.inputs, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->projected_edges, 0u);
  EXPECT_GT(result->clustering.num_clusters, 1u);
  // One row per director.
  EXPECT_EQ(result->final_table.NumRows(),
            scenario.inputs.individuals.NumRows());
  EXPECT_GT(result->cube.NumDefinedCells(), 0u);
}

TEST(PipelineTest, Scenario3CompanyCommunities) {
  auto scenario = SmallScenario();
  PipelineConfig config = BaseConfig();
  config.unit_source = UnitSource::kGroupClusters;
  config.method = ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  auto result = RunPipeline(scenario.inputs, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->projected_edges, 0u);
  EXPECT_GT(result->clustering.num_clusters, 1u);
  EXPECT_GT(result->cube.NumDefinedCells(), 0u);
  // Stage timings recorded for all four stages.
  EXPECT_EQ(result->timings.stages().size(), 4u);
}

TEST(PipelineTest, AllClusterMethodsRun) {
  auto scenario = SmallScenario();
  for (ClusterMethod method :
       {ClusterMethod::kConnectedComponents, ClusterMethod::kThreshold,
        ClusterMethod::kStoc, ClusterMethod::kLouvain}) {
    PipelineConfig config = BaseConfig();
    config.unit_source = UnitSource::kGroupClusters;
    config.method = method;
    config.stoc.tau = 0.2;
    auto result = RunPipeline(scenario.inputs, config);
    ASSERT_TRUE(result.ok())
        << ClusterMethodToString(method) << ": " << result.status();
    EXPECT_GT(result->clustering.num_clusters, 0u)
        << ClusterMethodToString(method);
  }
}

TEST(PipelineTest, UnknownGroupAttributeRejected) {
  auto scenario = SmallScenario();
  PipelineConfig config = BaseConfig();
  config.unit_source = UnitSource::kGroupAttribute;
  config.group_unit_attribute = "florb";
  EXPECT_EQ(RunPipeline(scenario.inputs, config).status().code(),
            StatusCode::kNotFound);
}

TEST(PipelineTest, TemporalSnapshotsDiffer) {
  datagen::ScenarioConfig ee = datagen::EstonianConfig(0.005, 23);
  auto scenario = datagen::GenerateScenario(ee);
  ASSERT_TRUE(scenario.ok());

  PipelineConfig config = BaseConfig();
  config.unit_source = UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  config.cube.min_support = 2;

  config.date = 1997;
  auto early = RunPipeline(scenario->inputs, config);
  ASSERT_TRUE(early.ok()) << early.status();
  config.date = 2012;
  auto late = RunPipeline(scenario->inputs, config);
  ASSERT_TRUE(late.ok()) << late.status();

  // Different snapshots select different seat sets.
  EXPECT_NE(early->final_table.NumRows(), late->final_table.NumRows());
}

TEST(PipelineTest, StocUsesGroupAttributes) {
  auto scenario = SmallScenario();
  graph::NodeAttributes attrs = BuildNodeAttributes(scenario.inputs.groups);
  EXPECT_EQ(attrs.NumNodes(), scenario.inputs.groups.NumRows());
  // Companies in the same sector+province share both tokens.
  bool found_similar = false;
  for (uint32_t a = 0; a < 50 && !found_similar; ++a) {
    for (uint32_t b = a + 1; b < 50; ++b) {
      if (attrs.Jaccard(a, b) == 1.0) {
        found_similar = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found_similar);
}

TEST(PipelineTest, EnumNames) {
  EXPECT_STREQ(UnitSourceToString(UnitSource::kGroupAttribute),
               "group-attribute");
  EXPECT_STREQ(UnitSourceToString(UnitSource::kGroupClusters),
               "group-clusters");
  EXPECT_STREQ(ClusterMethodToString(ClusterMethod::kStoc), "stoc");
  EXPECT_STREQ(ClusterMethodToString(ClusterMethod::kLouvain), "louvain");
}

}  // namespace
}  // namespace pipeline
}  // namespace scube
