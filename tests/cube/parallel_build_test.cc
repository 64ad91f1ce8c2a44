// Parallel-build determinism: BuildSegregationCube and Seal() must produce
// bit-identical output for every num_threads setting — same cells and
// values, same posting lists, slice groups, adjacency rows and ranked
// orders as the sequential (num_threads = 1) reference.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "cube/builder.h"
#include "cube/cube_view.h"
#include "indexes/segregation_index.h"

namespace scube {
namespace cube {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

Table RandomTable(uint64_t seed, size_t rows, size_t num_units) {
  Schema schema({
      {"g", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"a", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"r", ColumnType::kCategorical, AttributeKind::kContext},
      {"s", ColumnType::kCategorical, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  Rng rng(seed);
  const char* kG[] = {"F", "M"};
  const char* kA[] = {"y", "m", "e"};
  const char* kR[] = {"n", "s", "c"};
  const char* kS[] = {"s0", "s1", "s2", "s3"};
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRowFromStrings(
                     {kG[rng.NextBounded(2)], kA[rng.NextBounded(3)],
                      kR[rng.NextBounded(3)], kS[rng.NextBounded(4)],
                      "u" + std::to_string(rng.NextBounded(num_units))})
                    .ok());
  }
  return t;
}

CubeBuilderOptions Options(size_t num_threads) {
  CubeBuilderOptions opts;
  opts.min_support = 2;
  opts.mode = fpm::MineMode::kAll;
  opts.max_sa_items = 2;
  opts.max_ca_items = 2;
  opts.num_threads = num_threads;
  return opts;
}

void ExpectCellsIdentical(const CubeView& a, const CubeView& b) {
  ASSERT_EQ(a.NumCells(), b.NumCells());
  ASSERT_EQ(a.NumDefinedCells(), b.NumDefinedCells());
  for (size_t i = 0; i < a.NumCells(); ++i) {
    const CubeCell& ca = a.cell(static_cast<CubeView::CellId>(i));
    const CubeCell& cb = b.cell(static_cast<CubeView::CellId>(i));
    ASSERT_EQ(ca.coords.sa, cb.coords.sa) << "cell " << i;
    ASSERT_EQ(ca.coords.ca, cb.coords.ca) << "cell " << i;
    EXPECT_EQ(ca.context_size, cb.context_size) << "cell " << i;
    EXPECT_EQ(ca.minority_size, cb.minority_size) << "cell " << i;
    EXPECT_EQ(ca.num_units, cb.num_units) << "cell " << i;
    ASSERT_EQ(ca.indexes.defined, cb.indexes.defined) << "cell " << i;
    if (ca.indexes.defined) {
      for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
        // Bit-identical, not approximately equal: both sides must have
        // performed the same arithmetic in the same order.
        EXPECT_EQ(ca.indexes[kind], cb.indexes[kind])
            << "cell " << i << " index "
            << indexes::IndexKindToString(kind);
      }
    }
  }
}

template <typename Span>
std::vector<uint32_t> ToVec(Span span) {
  return std::vector<uint32_t>(span.begin(), span.end());
}

void ExpectViewsIdentical(const CubeView& a, const CubeView& b) {
  ExpectCellsIdentical(a, b);

  size_t max_item = std::max(a.catalog().size(), b.catalog().size());
  for (size_t item = 0; item < max_item; ++item) {
    fpm::ItemId id = static_cast<fpm::ItemId>(item);
    EXPECT_EQ(ToVec(a.SaPostings(id)), ToVec(b.SaPostings(id)))
        << "SA postings of item " << item;
    EXPECT_EQ(ToVec(a.CaPostings(id)), ToVec(b.CaPostings(id)))
        << "CA postings of item " << item;
  }

  for (size_t i = 0; i < a.NumCells(); ++i) {
    CubeView::CellId id = static_cast<CubeView::CellId>(i);
    const CellCoordinates& coords = a.cell(id).coords;
    EXPECT_EQ(ToVec(a.SliceBySa(coords.sa)), ToVec(b.SliceBySa(coords.sa)));
    EXPECT_EQ(ToVec(a.SliceByCa(coords.ca)), ToVec(b.SliceByCa(coords.ca)));
    EXPECT_EQ(ToVec(a.Parents(id)), ToVec(b.Parents(id))) << "cell " << i;
    EXPECT_EQ(ToVec(a.Children(id)), ToVec(b.Children(id))) << "cell " << i;
  }

  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    EXPECT_EQ(ToVec(a.RankedByIndex(kind)), ToVec(b.RankedByIndex(kind)))
        << "ranked order " << indexes::IndexKindToString(kind);
  }

  EXPECT_EQ(a.ToCsv(), b.ToCsv());
}

TEST(ParallelBuildTest, ParallelFillMatchesSequential) {
  Table table = RandomTable(/*seed=*/11, /*rows=*/600, /*num_units=*/12);
  for (size_t threads : {2, 3, 4, 8}) {
    CubeBuildStats seq_stats, par_stats;
    auto seq = BuildSegregationCube(table, Options(1), &seq_stats);
    auto par = BuildSegregationCube(table, Options(threads), &par_stats);
    ASSERT_TRUE(seq.ok()) << seq.status();
    ASSERT_TRUE(par.ok()) << par.status();

    EXPECT_EQ(par_stats.mined_itemsets, seq_stats.mined_itemsets);
    EXPECT_EQ(par_stats.cells_created, seq_stats.cells_created);
    EXPECT_EQ(par_stats.cells_defined, seq_stats.cells_defined);
    EXPECT_EQ(par_stats.contexts_memoized, seq_stats.contexts_memoized);
    EXPECT_EQ(seq_stats.threads_used, 1u);
    EXPECT_GE(par_stats.threads_used, 1u);

    // The cubes agree cell-for-cell (the sealed view's ToCsv walks
    // coordinate order and renders every count and index value).
    EXPECT_EQ(std::move(*seq).Seal().ToCsv(), std::move(*par).Seal().ToCsv())
        << threads << " threads";
  }
}

TEST(ParallelBuildTest, ParallelSealMatchesSequential) {
  Table table = RandomTable(/*seed=*/23, /*rows=*/500, /*num_units=*/10);
  auto built = BuildSegregationCube(table, Options(1));
  ASSERT_TRUE(built.ok()) << built.status();
  CubeView sequential = SegregationCube(*built).Seal(1);
  for (size_t threads : {2, 4, 8}) {
    CubeView parallel = SegregationCube(*built).Seal(threads);
    ExpectViewsIdentical(sequential, parallel);
  }
  // 0 = hardware concurrency, still identical.
  CubeView hw = std::move(*built).Seal(0);
  ExpectViewsIdentical(sequential, hw);
}

TEST(ParallelBuildTest, ParallelBuildPlusSealEndToEnd) {
  // The production path: parallel fill, then parallel (moving) seal, must
  // be indistinguishable from the fully sequential pipeline.
  Table table = RandomTable(/*seed=*/37, /*rows=*/400, /*num_units=*/8);
  auto seq_build = BuildSegregationCube(table, Options(1));
  auto par_build = BuildSegregationCube(table, Options(4));
  ASSERT_TRUE(seq_build.ok()) << seq_build.status();
  ASSERT_TRUE(par_build.ok()) << par_build.status();
  CubeView seq_view = std::move(*seq_build).Seal(1);
  CubeView par_view = std::move(*par_build).Seal(4);
  ExpectViewsIdentical(seq_view, par_view);
}

TEST(ParallelBuildTest, ThreadCountBeyondContextsIsSafe) {
  // Tiny cube, huge thread request: workers beyond the group count must
  // neither crash nor change the result.
  Table table = RandomTable(/*seed=*/5, /*rows=*/40, /*num_units=*/3);
  auto seq = BuildSegregationCube(table, Options(1));
  auto par = BuildSegregationCube(table, Options(64));
  ASSERT_TRUE(seq.ok()) << seq.status();
  ASSERT_TRUE(par.ok()) << par.status();
  EXPECT_EQ(std::move(*seq).Seal().ToCsv(), std::move(*par).Seal().ToCsv());
}

}  // namespace
}  // namespace cube
}  // namespace scube
