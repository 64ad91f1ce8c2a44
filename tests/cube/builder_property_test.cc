// Property sweep: on randomized finalTables, every cell the builder
// materialises must match a naive recomputation (row filtering), for every
// mining mode, and closed-mode cells must be a value-preserving subset of
// all-mode cells. The naive cell lists its units in the cube's unit order,
// so its indexes, computed without the fill's unit-term table, must match
// the cell's bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "common/random.h"
#include "cube/builder.h"
#include "cube/cube_view.h"
#include "indexes/counts.h"

namespace scube {
namespace cube {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

struct SweepParams {
  uint64_t seed;
  size_t rows;
  size_t num_units;
  uint64_t min_support;
  bool multi_valued_context;
  // Extra rows in one more unit, "big" (above the unit-term table's bound,
  // so its cells merge directly computed units into Gini's order).
  size_t big_unit_rows = 0;
};

Table RandomTable(const SweepParams& p, Rng* rng) {
  Schema schema({
      {"g", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"a", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"r", ColumnType::kCategorical, AttributeKind::kContext},
      {"s", p.multi_valued_context ? ColumnType::kCategoricalSet
                                   : ColumnType::kCategorical,
       AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  const char* kG[] = {"F", "M"};
  const char* kA[] = {"y", "m", "e"};
  const char* kR[] = {"n", "s"};
  const char* kS[] = {"s0", "s1", "s2", "s3"};
  for (size_t i = 0; i < p.rows + p.big_unit_rows; ++i) {
    std::string sector;
    if (p.multi_valued_context) {
      sector = "{";
      size_t count = 1 + rng->NextBounded(2);
      for (size_t k = 0; k < count; ++k) {
        if (k > 0) sector += ",";
        sector += kS[rng->NextBounded(4)];
      }
      sector += "}";
    } else {
      sector = kS[rng->NextBounded(4)];
    }
    EXPECT_TRUE(t.AppendRowFromStrings(
                     {kG[rng->NextBounded(2)], kA[rng->NextBounded(3)],
                      kR[rng->NextBounded(2)], sector,
                      i < p.rows
                          ? "u" + std::to_string(rng->NextBounded(p.num_units))
                          : std::string("big")})
                    .ok());
  }
  return t;
}

// Naive per-cell recomputation by scanning rows; units in the cube's
// unit order (`unit_labels`).
struct NaiveCell {
  uint64_t context_size = 0;
  uint64_t minority_size = 0;
  indexes::GroupDistribution dist;
};

NaiveCell NaiveCompute(const Table& t, const relational::ItemCatalog& cat,
                       const std::vector<std::string>& unit_labels,
                       const CellCoordinates& coords) {
  auto row_matches = [&](size_t row, const fpm::Itemset& items) {
    for (fpm::ItemId item : items.items()) {
      const auto& info = cat.info(item);
      const auto& spec = t.schema().attribute(info.attr_index);
      if (spec.type == ColumnType::kCategorical) {
        if (t.CategoricalValue(row, info.attr_index) != info.value) {
          return false;
        }
      } else {
        auto values = t.SetValues(row, info.attr_index);
        if (std::find(values.begin(), values.end(), info.value) ==
            values.end()) {
          return false;
        }
      }
    }
    return true;
  };
  int unit_col = t.schema().IndexOf("unitID");
  std::map<size_t, std::pair<uint64_t, uint64_t>> per_unit;
  NaiveCell out;
  for (size_t row = 0; row < t.NumRows(); ++row) {
    if (!row_matches(row, coords.ca)) continue;
    const std::string label =
        t.CategoricalValue(row, static_cast<size_t>(unit_col));
    const size_t unit = static_cast<size_t>(
        std::find(unit_labels.begin(), unit_labels.end(), label) -
        unit_labels.begin());
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

class BuilderPropertyTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(BuilderPropertyTest, CellsMatchNaiveInEveryMode) {
  const SweepParams& p = GetParam();
  Rng rng(p.seed);
  Table t = RandomTable(p, &rng);
  if (p.big_unit_rows > 0) {
    // Only "big" is above the bound: its cells with an empty context take
    // the direct path, every other unit the table.
    ASSERT_GT(p.big_unit_rows, indexes::UnitTermTable::kMaxTotalBound);
    ASSERT_LE(p.rows, indexes::UnitTermTable::kMaxTotalBound);
  }

  for (fpm::MineMode mode :
       {fpm::MineMode::kAll, fpm::MineMode::kClosed}) {
    CubeBuilderOptions opts;
    opts.min_support = p.min_support;
    opts.mode = mode;
    opts.max_sa_items = 2;
    opts.max_ca_items = 2;
    auto cube = BuildSegregationCube(t, opts);
    ASSERT_TRUE(cube.ok()) << cube.status();
    EXPECT_GT(cube->NumCells(), 0u);

    CubeView view = SegregationCube(*cube).Seal();
    for (const CubeCell& cell : view.Cells()) {
      NaiveCell naive = NaiveCompute(t, cube->catalog(), cube->unit_labels(),
                                     cell.coords);
      ASSERT_EQ(cell.context_size, naive.context_size)
          << view.LabelOf(cell.coords);
      ASSERT_EQ(cell.minority_size, naive.minority_size)
          << view.LabelOf(cell.coords);
      ASSERT_EQ(cell.num_units, naive.dist.NumUnits());
      auto expected = indexes::ComputeAllIndexes(naive.dist);
      ASSERT_TRUE(expected.ok());
      ASSERT_EQ(cell.indexes.defined, expected->defined);
      if (cell.indexes.defined) {
        for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
          ASSERT_EQ(std::bit_cast<uint64_t>(cell.Value(kind)),
                    std::bit_cast<uint64_t>((*expected)[kind]))
              << view.LabelOf(cell.coords) << " "
              << indexes::IndexKindToString(kind) << " " << cell.Value(kind)
              << " vs " << (*expected)[kind];
        }
      }
    }
  }
}

TEST_P(BuilderPropertyTest, ClosedCellsSubsetOfAllCells) {
  const SweepParams& p = GetParam();
  Rng rng(p.seed * 31337);
  Table t = RandomTable(p, &rng);

  CubeBuilderOptions all_opts;
  all_opts.min_support = p.min_support;
  all_opts.mode = fpm::MineMode::kAll;
  all_opts.max_sa_items = 2;
  all_opts.max_ca_items = 2;
  CubeBuilderOptions closed_opts = all_opts;
  closed_opts.mode = fpm::MineMode::kClosed;

  auto all_cube = BuildSegregationCube(t, all_opts);
  auto closed_cube = BuildSegregationCube(t, closed_opts);
  ASSERT_TRUE(all_cube.ok());
  ASSERT_TRUE(closed_cube.ok());
  EXPECT_LE(closed_cube->NumCells(), all_cube->NumCells());
  CubeView view = std::move(*closed_cube).Seal();
  for (const CubeCell& cell : view.Cells()) {
    const CubeCell* twin = all_cube->Find(cell.coords);
    ASSERT_NE(twin, nullptr);
    EXPECT_EQ(cell.context_size, twin->context_size);
    EXPECT_EQ(cell.minority_size, twin->minority_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTables, BuilderPropertyTest,
    ::testing::Values(SweepParams{1, 60, 3, 2, false},
                      SweepParams{2, 100, 5, 3, false},
                      SweepParams{3, 40, 2, 1, false},
                      SweepParams{4, 80, 4, 2, true},   // set-valued CA
                      SweepParams{5, 120, 6, 5, true},
                      SweepParams{6, 50, 8, 2, false},  // many units
                      SweepParams{7, 30, 1, 1, false},  // single unit
                      SweepParams{8, 150, 4, 10, true},
                      // Row counts that fill the last 64-bit cover word.
                      SweepParams{9, 64, 3, 2, false},
                      SweepParams{10, 128, 5, 3, true},
                      // One unit above the table bound, the rest below.
                      SweepParams{11, 240, 6, 8, false, 300},
                      SweepParams{12, 200, 5, 6, true, 420}));

}  // namespace
}  // namespace cube
}  // namespace scube
