#include "viz/report.h"

#include <gtest/gtest.h>

#include "cube/builder.h"

namespace scube {
namespace viz {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

cube::CubeView Fig1StyleCube() {
  Schema schema({
      {"sex", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"age", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"region", ColumnType::kCategorical, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  const char* rows[][4] = {
      {"female", "young", "north", "u0"}, {"female", "young", "north", "u0"},
      {"male", "young", "north", "u0"},   {"male", "elder", "north", "u1"},
      {"female", "elder", "north", "u1"}, {"male", "young", "north", "u1"},
      {"female", "young", "south", "u2"}, {"male", "elder", "south", "u2"},
      {"male", "elder", "south", "u2"},   {"female", "elder", "south", "u3"},
      {"male", "young", "south", "u3"},   {"female", "young", "south", "u3"},
  };
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRowFromStrings({r[0], r[1], r[2], r[3]}).ok());
  }
  cube::CubeBuilderOptions opts;
  opts.mode = fpm::MineMode::kAll;
  opts.max_sa_items = 2;
  opts.max_ca_items = 1;
  auto cube = cube::BuildSegregationCube(t, opts);
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(cube).value().Seal();
}

TEST(PivotTableTest, Fig1StyleGrid) {
  cube::CubeView cube = Fig1StyleCube();
  PivotSpec spec;
  spec.sa_attribute = "sex";
  spec.ca_attribute = "region";
  auto table = RenderPivotTable(cube, spec);
  ASSERT_TRUE(table.ok()) << table.status();
  const std::string& text = table.value();

  // Header row + female/male/* rows.
  EXPECT_NE(text.find("sex\\region"), std::string::npos);
  EXPECT_NE(text.find("north"), std::string::npos);
  EXPECT_NE(text.find("south"), std::string::npos);
  EXPECT_NE(text.find("female"), std::string::npos);
  EXPECT_NE(text.find("male"), std::string::npos);
  // The ⋆ subgroup row is all "-" (undefined: M = T).
  EXPECT_NE(text.find("*"), std::string::npos);
  EXPECT_NE(text.find("-"), std::string::npos);
  // 4 lines: header + 3 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  // The (female | *) global dissimilarity is 1/3 -> printed as 0.33.
  EXPECT_NE(text.find("0.33"), std::string::npos);
}

TEST(PivotTableTest, FixedCoordinateSlab) {
  cube::CubeView cube = Fig1StyleCube();
  const auto& cat = cube.catalog();
  fpm::ItemId young = cat.Find("age", "young");
  ASSERT_NE(young, fpm::kInvalidItem);
  PivotSpec spec;
  spec.sa_attribute = "sex";
  spec.ca_attribute = "region";
  spec.fixed_sa = fpm::Itemset({young});  // the age=young slab of Fig. 1
  auto table = RenderPivotTable(cube, spec);
  ASSERT_TRUE(table.ok());
  // The (⋆-sex, age=young | ...) row now carries defined values.
  EXPECT_NE(table->find("0."), std::string::npos);
}

TEST(PivotTableTest, UnknownAttributesRejected) {
  cube::CubeView cube = Fig1StyleCube();
  PivotSpec spec;
  spec.sa_attribute = "nope";
  spec.ca_attribute = "region";
  EXPECT_EQ(RenderPivotTable(cube, spec).status().code(),
            StatusCode::kNotFound);
  spec.sa_attribute = "sex";
  spec.ca_attribute = "nope";
  EXPECT_EQ(RenderPivotTable(cube, spec).status().code(),
            StatusCode::kNotFound);
}

TEST(TopContextsTest, RendersRankedRows) {
  cube::CubeView cube = Fig1StyleCube();
  cube::ExplorerOptions opts;
  opts.min_context_size = 1;
  opts.min_minority_size = 1;
  std::string text = RenderTopContexts(
      cube, indexes::IndexKind::kDissimilarity, 5, opts);
  EXPECT_NE(text.find("dissimilarity"), std::string::npos);
  EXPECT_NE(text.find("sex="), std::string::npos);
  // Header + up to 5 rows.
  EXPECT_LE(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_GE(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(CellSummaryTest, RendersAllSixIndexes) {
  cube::CubeView cube = Fig1StyleCube();
  const auto& cat = cube.catalog();
  fpm::ItemId female = cat.Find("sex", "female");
  const cube::CubeCell* cell = cube.Find(fpm::Itemset({female}),
                                         fpm::Itemset());
  ASSERT_NE(cell, nullptr);
  std::string text = RenderCellSummary(cube, *cell);
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    EXPECT_NE(text.find(indexes::IndexKindToString(kind)),
              std::string::npos);
  }
  EXPECT_NE(text.find("T=12"), std::string::npos);
  EXPECT_NE(text.find("M=6"), std::string::npos);
}

TEST(CellSummaryTest, UndefinedCellExplained) {
  cube::CubeView cube = Fig1StyleCube();
  const cube::CubeCell* root = cube.Find(fpm::Itemset(), fpm::Itemset());
  ASSERT_NE(root, nullptr);
  std::string text = RenderCellSummary(cube, *root);
  EXPECT_NE(text.find("undefined"), std::string::npos);
}

}  // namespace
}  // namespace viz
}  // namespace scube
