#include "cube/explorer.h"

#include <gtest/gtest.h>

#include "cube/builder.h"

namespace scube {
namespace cube {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

// Simpson-style fixture: units span regions. Per-unit gender mix is
// perfectly balanced overall (D = 0) but skewed within each region
// (D = 0.5): aggregation masks the segregation.
Table SimpsonTable() {
  Schema schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"region", ColumnType::kCategorical, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  auto add = [&t](const char* g, const char* r, const char* u, int copies) {
    for (int i = 0; i < copies; ++i) {
      EXPECT_TRUE(t.AppendRowFromStrings({g, r, u}).ok());
    }
  };
  // u0 north: 3F 1M; u0 south: 1F 3M; u1 north: 1F 3M; u1 south: 3F 1M.
  add("F", "north", "u0", 3);
  add("M", "north", "u0", 1);
  add("F", "south", "u0", 1);
  add("M", "south", "u0", 3);
  add("F", "north", "u1", 1);
  add("M", "north", "u1", 3);
  add("F", "south", "u1", 3);
  add("M", "south", "u1", 1);
  return t;
}

CubeView BuildFixture() {
  CubeBuilderOptions opts;
  opts.min_support = 1;
  opts.mode = fpm::MineMode::kAll;
  opts.max_sa_items = 1;
  opts.max_ca_items = 1;
  auto cube = BuildSegregationCube(SimpsonTable(), opts);
  EXPECT_TRUE(cube.ok()) << cube.status();
  return std::move(cube).value().Seal();
}

ExplorerOptions LooseFilters() {
  ExplorerOptions opts;
  opts.min_context_size = 1;
  opts.min_minority_size = 1;
  return opts;
}

TEST(ExplorerTest, FixtureAnchors) {
  CubeView cube = BuildFixture();
  const auto& cat = cube.catalog();
  fpm::ItemId female = cat.Find("gender", "F");
  fpm::ItemId north = cat.Find("region", "north");

  const CubeCell* global = cube.Find(fpm::Itemset({female}), fpm::Itemset());
  ASSERT_NE(global, nullptr);
  EXPECT_NEAR(global->Value(indexes::IndexKind::kDissimilarity), 0.0, 1e-9);

  const CubeCell* in_north =
      cube.Find(fpm::Itemset({female}), fpm::Itemset({north}));
  ASSERT_NE(in_north, nullptr);
  EXPECT_NEAR(in_north->Value(indexes::IndexKind::kDissimilarity), 0.5, 1e-9);
}

TEST(ExplorerTest, TopSegregatedContextsRanksRegionsFirst) {
  CubeView cube = BuildFixture();
  auto top = TopSegregatedContexts(cube, indexes::IndexKind::kDissimilarity,
                                   3, LooseFilters());
  ASSERT_GE(top.size(), 2u);
  // The two region-restricted cells (D = 0.5) outrank the global (D = 0).
  EXPECT_NEAR(top[0].value, 0.5, 1e-9);
  EXPECT_NEAR(top[1].value, 0.5, 1e-9);
  EXPECT_FALSE(top[0].cell->coords.ca.empty());
  // Ranked descending.
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].value, top[i].value);
  }
}

TEST(ExplorerTest, FiltersExcludeSmallAndPureContextCells) {
  CubeView cube = BuildFixture();
  ExplorerOptions strict;
  strict.min_context_size = 1000;  // nothing passes
  auto none = TopSegregatedContexts(cube, indexes::IndexKind::kGini, 10,
                                    strict);
  EXPECT_TRUE(none.empty());

  // ⋆-subgroup cells never pass the filters.
  auto loose = TopSegregatedContexts(cube, indexes::IndexKind::kGini, 100,
                                     LooseFilters());
  for (const RankedCell& rc : loose) {
    EXPECT_FALSE(rc.cell->coords.sa.empty());
  }
}

TEST(ExplorerTest, DrillDownSurprisesFindMaskedContexts) {
  CubeView cube = BuildFixture();
  auto surprises = DrillDownSurprises(
      cube, indexes::IndexKind::kDissimilarity, 0.3, LooseFilters());
  // (F|north) and (F|south) jump from parent D=0 to 0.5.
  ASSERT_GE(surprises.size(), 2u);
  EXPECT_NEAR(surprises[0].delta, 0.5, 1e-9);
  EXPECT_NEAR(surprises[0].best_parent_value, 0.0, 1e-9);
  // Sorted by delta descending.
  for (size_t i = 1; i < surprises.size(); ++i) {
    EXPECT_GE(surprises[i - 1].delta, surprises[i].delta);
  }
}

TEST(ExplorerTest, GranularityReversalDetectsSimpsonMasking) {
  CubeView cube = BuildFixture();
  auto reversals = FindGranularityReversals(
      cube, indexes::IndexKind::kDissimilarity, 0.3, LooseFilters());
  // Both minority readings (gender=F and gender=M) exhibit the masking.
  ASSERT_EQ(reversals.size(), 2u);
  for (const GranularityReversal& r : reversals) {
    EXPECT_TRUE(r.children_higher);
    EXPECT_NEAR(r.parent_value, 0.0, 1e-9);
    EXPECT_NEAR(r.min_child_value, 0.5, 1e-9);
    EXPECT_EQ(r.children.size(), 2u);
    EXPECT_TRUE(r.parent->coords.ca.empty());
    EXPECT_EQ(r.parent->coords.sa.size(), 1u);
  }
}

TEST(ExplorerTest, NoReversalWhenGapTooLarge) {
  CubeView cube = BuildFixture();
  auto reversals = FindGranularityReversals(
      cube, indexes::IndexKind::kDissimilarity, 0.9, LooseFilters());
  EXPECT_TRUE(reversals.empty());
}

TEST(ExplorerTest, PureContextCellsNeverServeAsSurpriseBaselines) {
  // Hand-built cube: the pure-context root is (unrealistically) flagged
  // defined. It must not serve as the roll-up baseline for (sa={1} | ⋆) —
  // pure-context cells carry no segregation reading, so the cell has no
  // usable parent and is not a surprise.
  auto make_cell = [](std::vector<fpm::ItemId> sa, std::vector<fpm::ItemId> ca,
                      uint64_t t, uint64_t m, double d) {
    CubeCell cell;
    cell.coords = CellCoordinates{fpm::Itemset(std::move(sa)),
                                  fpm::Itemset(std::move(ca))};
    cell.context_size = t;
    cell.minority_size = m;
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] = d;
    return cell;
  };
  SegregationCube cube;
  cube.Insert(make_cell({}, {}, 100, 40, 0.0));  // corrupt defined root
  cube.Insert(make_cell({1}, {}, 100, 40, 0.4));
  CubeView view = std::move(cube).Seal();

  auto surprises = DrillDownSurprises(
      view, indexes::IndexKind::kDissimilarity, 0.1, LooseFilters());
  EXPECT_TRUE(surprises.empty());
}

TEST(ExplorerTest, TopKTruncates) {
  CubeView cube = BuildFixture();
  auto top1 = TopSegregatedContexts(cube, indexes::IndexKind::kDissimilarity,
                                    1, LooseFilters());
  EXPECT_EQ(top1.size(), 1u);
  // k = 0 asks for nothing, not everything.
  auto top0 = TopSegregatedContexts(cube, indexes::IndexKind::kDissimilarity,
                                    0, LooseFilters());
  EXPECT_TRUE(top0.empty());
}

}  // namespace
}  // namespace cube
}  // namespace scube
