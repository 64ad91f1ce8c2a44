// SegregationDataCubeBuilder correctness: hand-computed anchors on a small
// finalTable, an exhaustive cross-check of every materialised cell against
// a naive recomputation that filters table rows directly, and a bit-level
// golden over one synthetic scenario.

#include "cube/builder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "common/hashing.h"
#include "cube/cube_view.h"
#include "datagen/scenarios.h"
#include "indexes/counts.h"
#include "scube/pipeline.h"

namespace scube {
namespace cube {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

Table SmallFinalTable() {
  Schema schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"age", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"region", ColumnType::kCategorical, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  const char* rows[][4] = {
      {"F", "young", "north", "u0"}, {"F", "young", "north", "u0"},
      {"M", "young", "north", "u0"}, {"M", "old", "north", "u1"},
      {"F", "old", "north", "u1"},   {"M", "young", "north", "u1"},
      {"F", "young", "south", "u2"}, {"M", "old", "south", "u2"},
      {"M", "old", "south", "u2"},   {"F", "old", "south", "u3"},
      {"M", "young", "south", "u3"}, {"F", "young", "south", "u3"},
  };
  for (const auto& r : rows) {
    EXPECT_TRUE(t.AppendRowFromStrings({r[0], r[1], r[2], r[3]}).ok());
  }
  return t;
}

CubeBuilderOptions AllCellsOptions() {
  CubeBuilderOptions opts;
  opts.min_support = 1;
  opts.mode = fpm::MineMode::kAll;
  opts.max_sa_items = 2;
  opts.max_ca_items = 1;
  return opts;
}

TEST(CubeBuilderTest, GlobalFemaleCellAnchor) {
  auto cube = BuildSegregationCube(SmallFinalTable(), AllCellsOptions());
  ASSERT_TRUE(cube.ok()) << cube.status();
  const CubeView view = std::move(*cube).Seal();

  const auto& cat = view.catalog();
  fpm::ItemId female = cat.Find("gender", "F");
  ASSERT_NE(female, fpm::kInvalidItem);

  // (sex=F | ⋆): 4 units of 3, minority (2,1,1,2) -> D = 1/3.
  const CubeCell* cell = view.Find(fpm::Itemset({female}), fpm::Itemset());
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->context_size, 12u);
  EXPECT_EQ(cell->minority_size, 6u);
  EXPECT_EQ(cell->num_units, 4u);
  ASSERT_TRUE(cell->indexes.defined);
  EXPECT_NEAR(cell->Value(indexes::IndexKind::kDissimilarity), 1.0 / 3.0,
              1e-9);
}

TEST(CubeBuilderTest, ContextRestrictedCellAnchor) {
  auto cube = BuildSegregationCube(SmallFinalTable(), AllCellsOptions());
  ASSERT_TRUE(cube.ok());
  const CubeView view = std::move(*cube).Seal();
  const auto& cat = view.catalog();
  fpm::ItemId female = cat.Find("gender", "F");
  fpm::ItemId young = cat.Find("age", "young");
  fpm::ItemId north = cat.Find("region", "north");
  ASSERT_NE(young, fpm::kInvalidItem);
  ASSERT_NE(north, fpm::kInvalidItem);

  // (sex=F | region=north): T=6 over units u0,u1; m=(2,1) -> D = 1/3.
  const CubeCell* cell =
      view.Find(fpm::Itemset({female}), fpm::Itemset({north}));
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->context_size, 6u);
  EXPECT_EQ(cell->minority_size, 3u);
  EXPECT_EQ(cell->num_units, 2u);
  EXPECT_NEAR(cell->Value(indexes::IndexKind::kDissimilarity), 1.0 / 3.0,
              1e-9);

  // (sex=F & age=young | region=north): m=(2,0), majority=(1,3) -> D = 0.75.
  const CubeCell* fine =
      view.Find(fpm::Itemset({female, young}), fpm::Itemset({north}));
  ASSERT_NE(fine, nullptr);
  EXPECT_EQ(fine->minority_size, 2u);
  EXPECT_NEAR(fine->Value(indexes::IndexKind::kDissimilarity), 0.75, 1e-9);
}

TEST(CubeBuilderTest, RootAndPureSaCellsAreUndefined) {
  auto cube = BuildSegregationCube(SmallFinalTable(), AllCellsOptions());
  ASSERT_TRUE(cube.ok());
  const CubeView view = std::move(*cube).Seal();
  // Root (⋆|⋆): M = T -> undefined ("-" in Fig. 1).
  const CubeCell* root = view.Find(fpm::Itemset(), fpm::Itemset());
  ASSERT_NE(root, nullptr);
  EXPECT_FALSE(root->indexes.defined);
  EXPECT_EQ(root->context_size, 12u);
  EXPECT_EQ(root->minority_size, 12u);

  // Pure-context cell (⋆ | region=north): M = T = 6 -> undefined.
  const auto& cat = view.catalog();
  fpm::ItemId north = cat.Find("region", "north");
  const CubeCell* ctx = view.Find(fpm::Itemset(), fpm::Itemset({north}));
  ASSERT_NE(ctx, nullptr);
  EXPECT_FALSE(ctx->indexes.defined);
}

// Naive recomputation of a cell by scanning table rows.
struct NaiveCell {
  uint64_t context_size = 0;
  uint64_t minority_size = 0;
  indexes::GroupDistribution dist;
};

NaiveCell NaiveCompute(const Table& t, const SegregationCube& cube,
                       const CellCoordinates& coords) {
  const auto& cat = cube.catalog();
  auto row_matches = [&](size_t row, const fpm::Itemset& items) {
    for (fpm::ItemId item : items.items()) {
      const auto& info = cat.info(item);
      if (t.CategoricalValue(row, info.attr_index) != info.value) return false;
    }
    return true;
  };
  int unit_col = t.schema().IndexOf("unitID");
  std::map<std::string, std::pair<uint64_t, uint64_t>> per_unit;  // t, m
  NaiveCell out;
  for (size_t row = 0; row < t.NumRows(); ++row) {
    if (!row_matches(row, coords.ca)) continue;
    std::string unit = t.CategoricalValue(row, static_cast<size_t>(unit_col));
    ++out.context_size;
    ++per_unit[unit].first;
    if (row_matches(row, coords.sa)) {
      ++out.minority_size;
      ++per_unit[unit].second;
    }
  }
  for (const auto& [unit, tm] : per_unit) {
    out.dist.AddUnit(tm.first, tm.second);
  }
  return out;
}

TEST(CubeBuilderTest, EveryCellMatchesNaiveRecomputation) {
  Table t = SmallFinalTable();
  auto cube = BuildSegregationCube(t, AllCellsOptions());
  ASSERT_TRUE(cube.ok());
  EXPECT_GT(cube->NumCells(), 20u);

  CubeView view = SegregationCube(*cube).Seal();
  for (const CubeCell& cell : view.Cells()) {
    NaiveCell naive = NaiveCompute(t, cube.value(), cell.coords);
    EXPECT_EQ(cell.context_size, naive.context_size)
        << view.LabelOf(cell.coords);
    EXPECT_EQ(cell.minority_size, naive.minority_size)
        << view.LabelOf(cell.coords);
    EXPECT_EQ(cell.num_units, naive.dist.NumUnits())
        << view.LabelOf(cell.coords);
    auto expected = indexes::ComputeAllIndexes(naive.dist);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(cell.indexes.defined, expected->defined)
        << view.LabelOf(cell.coords);
    if (cell.indexes.defined) {
      for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
        EXPECT_NEAR(cell.Value(kind), (*expected)[kind], 1e-9)
            << view.LabelOf(cell.coords) << " "
            << indexes::IndexKindToString(kind);
      }
    }
  }
}

TEST(CubeBuilderTest, ClosedModeCellsAgreeWithAllMode) {
  // Plant a perfect correlation (every F is foreign-born) so {gender=F} is
  // NOT closed — its closure adds birthplace=foreign — and closed mode
  // materialises strictly fewer cells.
  Schema schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"birthplace", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"region", ColumnType::kCategorical, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  const char* rows[][4] = {
      {"F", "foreign", "north", "u0"}, {"F", "foreign", "north", "u1"},
      {"M", "native", "north", "u0"},  {"M", "foreign", "north", "u1"},
      {"F", "foreign", "south", "u0"}, {"M", "native", "south", "u1"},
      {"M", "native", "south", "u0"},  {"F", "foreign", "south", "u1"},
  };
  for (const auto& r : rows) {
    ASSERT_TRUE(t.AppendRowFromStrings({r[0], r[1], r[2], r[3]}).ok());
  }

  auto all_opts = AllCellsOptions();
  auto closed_opts = AllCellsOptions();
  closed_opts.mode = fpm::MineMode::kClosed;

  auto all_cube = BuildSegregationCube(t, all_opts);
  auto closed_cube = BuildSegregationCube(t, closed_opts);
  ASSERT_TRUE(all_cube.ok());
  ASSERT_TRUE(closed_cube.ok());
  EXPECT_LT(closed_cube->NumCells(), all_cube->NumCells());
  EXPECT_GT(closed_cube->NumCells(), 0u);
  const CubeView all_view = std::move(*all_cube).Seal();
  CubeView view = std::move(*closed_cube).Seal();
  // {gender=F} alone is not closed: absent in closed mode, present in all.
  const auto& cat = all_view.catalog();
  fpm::ItemId female = cat.Find("gender", "F");
  EXPECT_NE(all_view.Find(fpm::Itemset({female}), fpm::Itemset()), nullptr);
  EXPECT_EQ(view.Find(fpm::Itemset({female}), fpm::Itemset()), nullptr);

  for (const CubeCell& cell : view.Cells()) {
    const CubeCell* same = all_view.Find(cell.coords);
    ASSERT_NE(same, nullptr);
    EXPECT_EQ(cell.context_size, same->context_size);
    EXPECT_EQ(cell.minority_size, same->minority_size);
    if (cell.indexes.defined) {
      EXPECT_NEAR(cell.Value(indexes::IndexKind::kGini),
                  same->Value(indexes::IndexKind::kGini), 1e-12);
    }
  }
}

TEST(CubeBuilderTest, MinSupportPrunesRareCells) {
  Table t = SmallFinalTable();
  auto opts = AllCellsOptions();
  opts.min_support = 4;
  auto cube = BuildSegregationCube(t, opts);
  ASSERT_TRUE(cube.ok());
  CubeView view = std::move(*cube).Seal();
  for (const CubeCell& cell : view.Cells()) {
    EXPECT_GE(cell.minority_size, 4u) << view.LabelOf(cell.coords);
  }
}

TEST(CubeBuilderTest, MinSupportFractionApplies) {
  Table t = SmallFinalTable();
  auto opts = AllCellsOptions();
  opts.min_support = 1;
  opts.min_support_fraction = 0.5;  // 6 of 12 rows
  auto cube = BuildSegregationCube(t, opts);
  ASSERT_TRUE(cube.ok());
  CubeView view = std::move(*cube).Seal();
  for (const CubeCell& cell : view.Cells()) {
    EXPECT_GE(cell.minority_size, 6u);
  }
}

TEST(CubeBuilderTest, BadMinSupportFractionRejected) {
  // API callers bypass the config parser: a fraction outside [0,1] (inf
  // used to reach an undefined double-to-integer cast) or NaN (silently
  // ignored) is InvalidArgument.
  Table t = SmallFinalTable();
  for (double fraction : {std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(), -0.5,
                          1.5, 1e300}) {
    auto opts = AllCellsOptions();
    opts.min_support_fraction = fraction;
    auto cube = BuildSegregationCube(t, opts);
    EXPECT_EQ(cube.status().code(), StatusCode::kInvalidArgument) << fraction;
  }
  auto opts = AllCellsOptions();
  opts.min_support_fraction = 1.0;  // every row: only the root survives
  auto cube = BuildSegregationCube(t, opts);
  ASSERT_TRUE(cube.ok()) << cube.status();
  CubeView view = std::move(*cube).Seal();
  for (const CubeCell& cell : view.Cells()) {
    EXPECT_EQ(cell.minority_size, 12u);
  }
}

TEST(CubeBuilderTest, BadAtkinsonParameterRejected) {
  Table t = SmallFinalTable();
  for (double b : {0.0, 1.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    auto opts = AllCellsOptions();
    opts.index_params.atkinson_b = b;
    EXPECT_EQ(BuildSegregationCube(t, opts).status().code(),
              StatusCode::kInvalidArgument)
        << b;
  }
}

TEST(CubeBuilderTest, CoordinateCapsRespected) {
  Table t = SmallFinalTable();
  auto opts = AllCellsOptions();
  opts.max_sa_items = 1;
  opts.max_ca_items = 1;
  auto cube = BuildSegregationCube(t, opts);
  ASSERT_TRUE(cube.ok());
  CubeView view = std::move(*cube).Seal();
  for (const CubeCell& cell : view.Cells()) {
    EXPECT_LE(cell.coords.sa.size(), 1u);
    EXPECT_LE(cell.coords.ca.size(), 1u);
  }
}

TEST(CubeBuilderTest, StatsPopulated) {
  Table t = SmallFinalTable();
  CubeBuildStats stats;
  auto cube = BuildSegregationCube(t, AllCellsOptions(), &stats);
  ASSERT_TRUE(cube.ok());
  EXPECT_GT(stats.mined_itemsets, 0u);
  EXPECT_EQ(stats.cells_created, cube->NumCells());
  EXPECT_EQ(stats.cells_defined, cube->NumDefinedCells());
  EXPECT_GT(stats.contexts_memoized, 0u);
  EXPECT_GE(stats.seconds_mining, 0.0);
  EXPECT_GE(stats.seconds_grouping, 0.0);
  EXPECT_GE(stats.seconds_filling, 0.0);
  EXPECT_EQ(stats.threads_used, 1u);
}

TEST(CubeBuilderTest, EmptyTableRejected) {
  Schema schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  EXPECT_EQ(BuildSegregationCube(t, AllCellsOptions()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CubeBuilderTest, MultiValuedContextCountsInEveryValue) {
  Schema schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"sector", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  ASSERT_TRUE(t.AppendRowFromStrings({"F", "{edu,agri}", "u0"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"M", "{edu}", "u0"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"F", "{agri}", "u1"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"M", "{agri}", "u1"}).ok());

  auto cube = BuildSegregationCube(t, AllCellsOptions());
  ASSERT_TRUE(cube.ok());
  const CubeView view = std::move(*cube).Seal();
  const auto& cat = view.catalog();
  fpm::ItemId female = cat.Find("gender", "F");
  fpm::ItemId agri = cat.Find("sector", "agri");
  ASSERT_NE(agri, fpm::kInvalidItem);

  // Context sector=agri covers rows 0, 2, 3 (row 0 via the set value).
  const CubeCell* cell =
      view.Find(fpm::Itemset({female}), fpm::Itemset({agri}));
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->context_size, 3u);
  EXPECT_EQ(cell->minority_size, 2u);
}

// FNV-1a over every cell of the sealed view, in coordinate order: labels,
// T, M, unit count and the six values as hex floats, so a drift in the
// last bit of any index of any cell changes the hash. (The naive
// cross-checks compare within 1e-9, and perfbench's cube hash renders
// values with 6 digits.)
uint64_t CellBitsFingerprint(const SegregationCube& cube) {
  std::string text;
  char buf[40];
  CubeView view = SegregationCube(cube).Seal();
  for (const CubeCell& cell : view.Cells()) {
    text += view.LabelOf(cell.coords);
    text += "|" + std::to_string(cell.context_size) + "|" +
            std::to_string(cell.minority_size) + "|" +
            std::to_string(cell.num_units);
    if (cell.indexes.defined) {
      for (double v : cell.indexes.values) {
        std::snprintf(buf, sizeof(buf), "|%a", v);
        text += buf;
      }
    } else {
      text += "|-";
    }
    text += "\n";
  }
  return HashBytes(text);
}

TEST(CubeBuilderTest, UncappedCaItemsMatchTheTightCap) {
  // SmallFinalTable has one single-valued CA attribute, so no cell has more
  // than one CA item and a UINT32_MAX cap must build the cap-1 cube. The
  // mining length max_sa_items + max_ca_items must not wrap.
  Table t = SmallFinalTable();
  CubeBuilderOptions tight = AllCellsOptions();
  ASSERT_EQ(tight.max_ca_items, 1u);
  CubeBuilderOptions uncapped = tight;
  uncapped.max_ca_items = std::numeric_limits<uint32_t>::max();
  auto expected = BuildSegregationCube(t, tight);
  auto actual = BuildSegregationCube(t, uncapped);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_TRUE(actual.ok()) << actual.status();
  EXPECT_EQ(actual->NumCells(), expected->NumCells());
  EXPECT_EQ(CellBitsFingerprint(actual.value()),
            CellBitsFingerprint(expected.value()));
}

TEST(CubeBuilderGoldenTest, DatagenScenarioCellBitsArePinned) {
  auto scenario =
      datagen::GenerateScenario(datagen::ItalianConfig(0.002, 11));
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupClusters;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.mode = fpm::MineMode::kClosed;
  config.cube.max_sa_items = 3;
  config.cube.max_ca_items = 2;
  config.cube.min_support = 5;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  ASSERT_TRUE(result.ok()) << result.status();

  // Captured from a fill that evaluated the full index formulas for every
  // unit; the m_i = 0 shortcuts must leave every bit as it was.
  constexpr uint64_t kCells = 9405;
  constexpr uint64_t kFingerprint = 0x88bf5359d0e211beULL;
  EXPECT_EQ(result->final_table.NumRows(), 12518u);
  EXPECT_EQ(result->cube.NumCells(), kCells);
  EXPECT_EQ(CellBitsFingerprint(result->cube), kFingerprint);

  CubeBuilderOptions parallel = config.cube;
  parallel.num_threads = 4;
  auto rebuilt = BuildSegregationCube(result->final_table, parallel);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(CellBitsFingerprint(rebuilt.value()), kFingerprint);
}

}  // namespace
}  // namespace cube
}  // namespace scube
