// The builder's cells against the brute-force oracle (tests/oracles): on
// random finalTables with single- and set-valued CA attributes, in every
// mode, under several SA/CA caps and minimum supports, with 1 and 4 fill
// threads, the cube must hold exactly the oracle's cells with the oracle's
// T and M. Named cases pin the cover test's traps.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>

#include "common/random.h"
#include "cube/builder.h"
#include "cube/cube_view.h"
#include "oracles/mining_oracle.h"

namespace scube {
namespace cube {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

constexpr uint32_t kNoCap = std::numeric_limits<uint32_t>::max();

std::map<CellCoordinates, oracle::Cell> BuiltCells(
    const SegregationCube& cube) {
  std::map<CellCoordinates, oracle::Cell> cells;
  CubeView view = SegregationCube(cube).Seal();
  for (const CubeCell& cell : view.Cells()) {
    cells[cell.coords] = oracle::Cell{cell.context_size, cell.minority_size};
  }
  return cells;
}

std::string Describe(const CubeBuilderOptions& o) {
  return "mode=" + std::to_string(static_cast<int>(o.mode)) +
         " caps=" + std::to_string(o.max_sa_items) + "," +
         std::to_string(o.max_ca_items) +
         " min_support=" + std::to_string(o.min_support) +
         " threads=" + std::to_string(o.num_threads);
}

// Builds `table` under `options` and expects exactly the oracle's cells.
void ExpectOracleCells(const Table& table, CubeBuilderOptions options) {
  auto encoded = relational::EncodeForAnalysis(table);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  const auto expected = oracle::CubeCells(encoded.value(), options);
  for (size_t threads : {1, 4}) {
    options.num_threads = threads;
    CubeBuildStats stats;
    auto cube = BuildSegregationCube(table, options, &stats);
    ASSERT_TRUE(cube.ok()) << cube.status();
    const auto actual = BuiltCells(cube.value());
    EXPECT_EQ(stats.cells_created, expected.size()) << Describe(options);
    for (const auto& [coords, cell] : expected) {
      auto it = actual.find(coords);
      ASSERT_NE(it, actual.end())
          << "missing " << encoded->catalog.LabelSet(coords.sa) << " | "
          << encoded->catalog.LabelSet(coords.ca) << " " << Describe(options);
      EXPECT_EQ(it->second, cell)
          << encoded->catalog.LabelSet(coords.sa) << " | "
          << encoded->catalog.LabelSet(coords.ca) << " " << Describe(options);
    }
    for (const auto& [coords, cell] : actual) {
      ASSERT_TRUE(expected.count(coords))
          << "extra " << encoded->catalog.LabelSet(coords.sa) << " | "
          << encoded->catalog.LabelSet(coords.ca) << " " << Describe(options);
    }
  }
}

struct SweepParams {
  uint64_t seed;
  size_t rows;
  size_t num_units;
  bool set_valued;  // `s` and `h` hold one or two values per row
};

// Two SA attributes (g: 2 values, a: 3) and three CA attributes (r: 3
// values, s: 4, h: 3).
Table RandomTable(const SweepParams& p) {
  const ColumnType ca_type =
      p.set_valued ? ColumnType::kCategoricalSet : ColumnType::kCategorical;
  Schema schema({
      {"g", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"a", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"r", ColumnType::kCategorical, AttributeKind::kContext},
      {"s", ca_type, AttributeKind::kContext},
      {"h", ca_type, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  Rng rng(p.seed);
  const char* kG[] = {"F", "M"};
  const char* kA[] = {"y", "m", "e"};
  const char* kR[] = {"n", "c", "s"};
  const char* kS[] = {"s0", "s1", "s2", "s3"};
  const char* kH[] = {"h0", "h1", "h2"};
  auto pick = [&](const char* const* values, size_t n) {
    if (!p.set_valued) return std::string(values[rng.NextBounded(n)]);
    std::string set = "{";
    const size_t count = 1 + rng.NextBounded(2);
    for (size_t k = 0; k < count; ++k) {
      if (k > 0) set += ",";
      set += values[rng.NextBounded(n)];
    }
    return set + "}";
  };
  for (size_t i = 0; i < p.rows; ++i) {
    std::string g = kG[rng.NextBounded(2)];
    std::string a = kA[rng.NextBounded(3)];
    std::string r = kR[rng.NextBounded(3)];
    std::string s = pick(kS, 4);
    std::string h = pick(kH, 3);
    EXPECT_TRUE(
        t.AppendRowFromStrings(
             {g, a, r, s, h, "u" + std::to_string(rng.NextBounded(p.num_units))})
            .ok());
  }
  return t;
}

class BuilderOracleTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(BuilderOracleTest, CellsEqualTheOracleInEveryModeAndCap) {
  const SweepParams& p = GetParam();
  const Table table = RandomTable(p);
  const std::pair<uint32_t, uint32_t> kCaps[] = {
      {1, 1}, {2, 1}, {3, 2}, {2, 0}, {kNoCap, kNoCap}};
  for (fpm::MineMode mode : {fpm::MineMode::kAll, fpm::MineMode::kClosed,
                             fpm::MineMode::kMaximal}) {
    for (const auto& [sa_cap, ca_cap] : kCaps) {
      for (uint64_t min_support : {uint64_t{1}, uint64_t{4}}) {
        CubeBuilderOptions options;
        options.mode = mode;
        options.max_sa_items = sa_cap;
        options.max_ca_items = ca_cap;
        options.min_support = min_support;
        ExpectOracleCells(table, options);
        if (HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTables, BuilderOracleTest,
    ::testing::Values(SweepParams{1, 40, 3, false},
                      SweepParams{2, 90, 5, false},
                      SweepParams{3, 64, 2, true},   // one full cover word
                      SweepParams{4, 130, 6, true},  // spans three words
                      SweepParams{5, 25, 1, true},
                      SweepParams{6, 70, 4, false}));

// Hand-written tables: rows of (g, s, unitID) with `s` set-valued.
Table SetValuedTable(const std::vector<std::vector<std::string>>& rows) {
  Schema schema({
      {"g", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"s", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  for (const auto& row : rows) EXPECT_TRUE(t.AppendRowFromStrings(row).ok());
  return t;
}

// Every row holding s0 also holds s1, so the only equal-support witness of
// {s=s0} is s1: a second value of the very attribute the candidate fixes.
// Skipping the attributes a candidate already fixes would keep it as a
// cell.
TEST(BuilderOracleTrapTest, OnlyWitnessIsASecondValueOfAFixedSetAttribute) {
  const Table table = SetValuedTable({{"F", "{s0,s1}", "u0"},
                                      {"M", "{s0,s1}", "u1"},
                                      {"F", "{s1}", "u0"},
                                      {"M", "{s2}", "u1"},
                                      {"F", "{s2}", "u1"},
                                      {"M", "{s1}", "u0"}});
  auto encoded = relational::EncodeForAnalysis(table);
  ASSERT_TRUE(encoded.ok());
  const fpm::ItemId f = encoded->catalog.Find("g", "F");
  const fpm::ItemId s0 = encoded->catalog.Find("s", "s0");
  const fpm::ItemId s1 = encoded->catalog.Find("s", "s1");

  for (uint32_t ca_cap : {1u, 2u}) {
    CubeBuilderOptions options;
    options.mode = fpm::MineMode::kClosed;
    options.max_sa_items = 1;
    options.max_ca_items = ca_cap;
    ExpectOracleCells(table, options);
    auto cube = BuildSegregationCube(table, options);
    ASSERT_TRUE(cube.ok());
    const CubeView view = std::move(*cube).Seal();
    // With one CA item allowed, s1 still witnesses against {s=s0}: the
    // reference collection is bounded by length (here 2), not by the
    // caps. {g=F, s=s0} is then full length, hence closed. With two, the
    // closures {s=s0, s=s1} and {g=F | s=s0, s=s1} are the cells.
    EXPECT_EQ(view.Find(fpm::Itemset(), fpm::Itemset({s0})), nullptr);
    EXPECT_EQ(view.Find(fpm::Itemset({f}), fpm::Itemset({s0})) != nullptr,
              ca_cap == 1)
        << "ca_cap=" << ca_cap;
    EXPECT_EQ(view.Find(fpm::Itemset(), fpm::Itemset({s0, s1})) != nullptr,
              ca_cap == 2)
        << "ca_cap=" << ca_cap;
  }
}

// Under caps (1, 1) the length bound is 2. Every F row in context n is
// young, so {g=F, r=n} has an equal-support extension, {g=F, a=y, r=n}, but
// it is three items long: outside the collection, so {g=F, r=n} is closed
// and maximal.
TEST(BuilderOracleTrapTest, FullLengthCandidateIsClosedDespiteAnExtension) {
  Schema schema({
      {"g", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"a", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"r", ColumnType::kCategorical, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table table(schema);
  const std::vector<std::vector<std::string>> rows = {
      {"F", "y", "n", "u0"}, {"F", "y", "n", "u1"}, {"M", "e", "n", "u0"},
      {"M", "y", "n", "u1"}, {"F", "e", "s", "u0"}, {"M", "y", "s", "u1"},
      {"F", "y", "s", "u1"}, {"M", "e", "s", "u0"}};
  for (const auto& row : rows) {
    ASSERT_TRUE(table.AppendRowFromStrings(row).ok());
  }
  auto encoded = relational::EncodeForAnalysis(table);
  ASSERT_TRUE(encoded.ok());
  const fpm::ItemId f = encoded->catalog.Find("g", "F");
  const fpm::ItemId n = encoded->catalog.Find("r", "n");

  for (fpm::MineMode mode : {fpm::MineMode::kClosed, fpm::MineMode::kMaximal}) {
    CubeBuilderOptions options;
    options.mode = mode;
    options.max_sa_items = 1;
    options.max_ca_items = 1;
    ExpectOracleCells(table, options);
    auto cube = BuildSegregationCube(table, options);
    ASSERT_TRUE(cube.ok());
    const CubeView view = std::move(*cube).Seal();
    const CubeCell* cell = view.Find(fpm::Itemset({f}), fpm::Itemset({n}));
    ASSERT_NE(cell, nullptr) << "mode=" << static_cast<int>(mode);
    EXPECT_EQ(cell->context_size, 4u);
    EXPECT_EQ(cell->minority_size, 2u);
  }
}

// A minimum support above the row count leaves only the root, which has
// no frequent superset at all.
TEST(BuilderOracleTrapTest, MinSupportAboveTheRowCountKeepsTheRoot) {
  const Table table = SetValuedTable({{"F", "{s0}", "u0"},
                                      {"F", "{s0}", "u1"},
                                      {"M", "{s0}", "u0"}});
  for (fpm::MineMode mode : {fpm::MineMode::kAll, fpm::MineMode::kClosed,
                             fpm::MineMode::kMaximal}) {
    CubeBuilderOptions options;
    options.mode = mode;
    options.min_support = 10;
    ExpectOracleCells(table, options);
    auto cube = BuildSegregationCube(table, options);
    ASSERT_TRUE(cube.ok());
    EXPECT_EQ(cube->NumCells(), 1u);
    const CubeView view = std::move(*cube).Seal();
    EXPECT_NE(view.Find(fpm::Itemset(), fpm::Itemset()), nullptr);
  }
}

}  // namespace
}  // namespace cube
}  // namespace scube
