// Full-process integration test: the paper's Fig. 3 flow from raw CSV text
// (individual.csv, group.csv, individualGroup.csv) through loading,
// projection, clustering, the join, cube construction, exploration, and
// both export formats — asserting hand-computable values at the end.

#include <gtest/gtest.h>

#include <cstdio>

#include "cube/explorer.h"
#include "etl/loaders.h"
#include "scube/config.h"
#include "scube/pipeline.h"
#include "viz/report.h"
#include "viz/xlsx_writer.h"

namespace scube {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;

// Two clearly-separated company communities:
//   community A: companies 100,101 (linked by shared directors 1,2) — all
//     male boards, sector electricity;
//   community B: companies 102,103 (linked by directors 5,6) — all female
//     boards, sector education.
// Company 104 is isolated (its own unit, mixed board).
constexpr char kIndividualsCsv[] =
    "id,gender,age_bin\n"
    "1,M,18-38\n"
    "2,M,39-46\n"
    "3,M,18-38\n"
    "4,M,39-46\n"
    "5,F,18-38\n"
    "6,F,39-46\n"
    "7,F,18-38\n"
    "8,F,39-46\n"
    "9,M,18-38\n"
    "10,F,18-38\n";

constexpr char kGroupsCsv[] =
    "id,sector\n"
    "100,electricity\n"
    "101,transports\n"
    "102,education\n"
    "103,health\n"
    "104,trade\n";

constexpr char kMembershipCsv[] =
    "individualID,groupID\n"
    "1,100\n1,101\n"   // director 1 links 100-101
    "2,100\n2,101\n"   // director 2 links them too (weight 2)
    "3,100\n"
    "4,101\n"
    "5,102\n5,103\n"   // director 5 links 102-103
    "6,102\n6,103\n"
    "7,102\n"
    "8,103\n"
    "9,104\n"
    "10,104\n";

etl::ScubeInputs LoadFixture() {
  CsvReader reader;
  auto ind = reader.ParseString(kIndividualsCsv);
  auto grp = reader.ParseString(kGroupsCsv);
  auto mem = reader.ParseString(kMembershipCsv);
  EXPECT_TRUE(ind.ok());
  EXPECT_TRUE(grp.ok());
  EXPECT_TRUE(mem.ok());
  Schema ind_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"age_bin", ColumnType::kCategorical, AttributeKind::kSegregation},
  });
  Schema grp_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"sector", ColumnType::kCategorical, AttributeKind::kContext},
  });
  auto inputs = etl::LoadInputsFromCsv(ind.value(), ind_schema, grp.value(),
                                       grp_schema, mem.value());
  EXPECT_TRUE(inputs.ok()) << inputs.status();
  return std::move(inputs).value();
}

TEST(IntegrationTest, CsvToDiscoveryEndToEnd) {
  etl::ScubeInputs inputs = LoadFixture();

  // Config supplied through the text format, as the wizard would persist it.
  auto config = pipeline::ParsePipelineConfig(
      "unit_source = group-clusters\n"
      "method = threshold-cc\n"
      "threshold.min_weight = 2\n"
      "cube.min_support = 1\n"
      "cube.mode = all\n"
      "cube.max_sa_items = 2\n"
      "cube.max_ca_items = 1\n");
  ASSERT_TRUE(config.ok()) << config.status();

  auto result = pipeline::RunPipeline(inputs, config.value());
  ASSERT_TRUE(result.ok()) << result.status();

  // Projection: 100-101 (weight 2), 102-103 (weight 2); 104 isolated.
  EXPECT_EQ(result->projected_edges, 2u);
  EXPECT_EQ(result->isolated_nodes, 1u);
  // Clustering: {100,101}, {102,103}, {104} -> 3 units.
  EXPECT_EQ(result->clustering.num_clusters, 3u);

  // finalTable: one row per (director, unit) = 10 rows.
  EXPECT_EQ(result->final_table.NumRows(), 10u);

  // The global female cell: units hold (4M,0F), (0M,4F), (1M,1F):
  // T=10, M=5, per-unit m=(0,4,1), t=(4,4,2).
  // D = 1/2(|0-4/5| + |4/5-0| + |1/5-1/5|) = 0.8.
  const auto& cube = result->cube;
  fpm::ItemId female = cube.catalog().Find("gender", "F");
  ASSERT_NE(female, fpm::kInvalidItem);
  const cube::CubeCell* cell = cube.Find(fpm::Itemset({female}),
                                         fpm::Itemset());
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->context_size, 10u);
  EXPECT_EQ(cell->minority_size, 5u);
  EXPECT_EQ(cell->num_units, 3u);
  ASSERT_TRUE(cell->indexes.defined);
  EXPECT_NEAR(cell->Value(indexes::IndexKind::kDissimilarity), 0.8, 1e-9);
  // Isolation: (0)(0) + (4/5)(1) + (1/5)(1/2) = 0.9.
  EXPECT_NEAR(cell->Value(indexes::IndexKind::kIsolation), 0.9, 1e-9);

  // Context sector=education selects the all-female community (and the
  // education companies only): every member is female -> degenerate cell.
  fpm::ItemId education = cube.catalog().Find("sector", "education");
  ASSERT_NE(education, fpm::kInvalidItem);
  const cube::CubeCell* edu_cell =
      cube.Find(fpm::Itemset({female}), fpm::Itemset({education}));
  ASSERT_NE(edu_cell, nullptr);
  EXPECT_EQ(edu_cell->context_size, edu_cell->minority_size);
  EXPECT_FALSE(edu_cell->indexes.defined);

  // Seal and explore: the female cell ranks at the top globally.
  cube::CubeView view = std::move(result->cube).Seal();
  cube::ExplorerOptions explore;
  explore.min_context_size = 5;
  explore.min_minority_size = 2;
  auto top = cube::TopSegregatedContexts(
      view, indexes::IndexKind::kDissimilarity, 3, explore);
  ASSERT_FALSE(top.empty());
  EXPECT_NEAR(top[0].value, 1.0, 0.3);

  // Exports parse/serialise without error.
  std::string csv = view.ToCsv();
  EXPECT_NE(csv.find("gender=F"), std::string::npos);
  std::string path = ::testing::TempDir() + "/scube_integration.xlsx";
  ASSERT_TRUE(viz::WriteCubeXlsx(view, path).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->substr(0, 2), "PK");
  std::remove(path.c_str());

  // A pivot renders with both defined and undefined cells.
  viz::PivotSpec pivot;
  pivot.sa_attribute = "gender";
  pivot.ca_attribute = "sector";
  auto grid = viz::RenderPivotTable(view, pivot);
  ASSERT_TRUE(grid.ok());
  EXPECT_NE(grid->find("-"), std::string::npos);
}

TEST(IntegrationTest, TabularShortcutMatchesPipelineSemantics) {
  // If the data already carries units (sector as unitID), the pre-processing
  // steps are skipped (paper §3): kGroupAttribute must produce the same
  // cube cells as manually encoding sector as the unit.
  etl::ScubeInputs inputs = LoadFixture();
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  config.cube.min_support = 1;
  config.cube.mode = fpm::MineMode::kAll;
  config.cube.max_sa_items = 1;
  config.cube.max_ca_items = 0;
  auto result = pipeline::RunPipeline(inputs, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->clustering.num_clusters, 5u);  // five sectors

  // 14 (director, sector-unit) pairs: directors 1,2,5,6 sit in two sectors
  // each (10 directors + 4 extra pairs).
  EXPECT_EQ(result->final_table.NumRows(), 14u);

  fpm::ItemId female = result->cube.catalog().Find("gender", "F");
  const cube::CubeCell* cell =
      result->cube.Find(fpm::Itemset({female}), fpm::Itemset());
  ASSERT_NE(cell, nullptr);
  // Per-sector counts: elec(3M,0F) trans(3M,0F) edu(0M,3F) health(0M,3F)
  // trade(1M,1F): t=(3,3,3,3,2), m=(0,0,3,3,1), T=14, M=7, majority=7.
  // D = 1/2(2*|0-3/7| + 2*|3/7-0| + |1/7-1/7|) = 6/7.
  EXPECT_EQ(cell->context_size, 14u);
  EXPECT_EQ(cell->minority_size, 7u);
  ASSERT_TRUE(cell->indexes.defined);
  EXPECT_NEAR(cell->Value(indexes::IndexKind::kDissimilarity), 6.0 / 7.0,
              1e-9);
}

}  // namespace
}  // namespace scube
