// FP-Growth miner tests: hand-checked anchors on a tiny database (the
// all-itemsets anchors run on both FP-Growth and the brute-force oracle,
// the closed and maximal anchors check the oracle, which the cube-builder
// tests trust for those modes), plus randomized sweeps of FP-Growth's
// capped enumeration against the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <string>

#include "common/random.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"
#include "oracles/mining_oracle.h"

namespace scube {
namespace fpm {
namespace {

Result<std::vector<FrequentItemset>> BruteForceMine(
    const TransactionDb& db, const MinerOptions& options) {
  return oracle::Mine(db, options);
}

TransactionDb TextbookDb() {
  // Han's textbook example (items recoded: f=0,c=1,a=2,b=3,m=4,p=5,i=6,...).
  TransactionDb db;
  db.AddTransaction({0, 2, 1, 4, 5});  // f a c m p (+dropped infrequent)
  db.AddTransaction({0, 1, 2, 3, 4});  // f c a b m
  db.AddTransaction({0, 3});           // f b
  db.AddTransaction({1, 3, 5});        // c b p
  db.AddTransaction({0, 1, 2, 4, 5});  // f c a m p
  return db;
}

std::map<Itemset, uint64_t> AsMap(const std::vector<FrequentItemset>& sets) {
  std::map<Itemset, uint64_t> m;
  for (const auto& fs : sets) m[fs.items] = fs.support;
  return m;
}

TEST(MinerOptionsTest, Validation) {
  MinerOptions bad;
  bad.min_support = 0;
  EXPECT_FALSE(ValidateMinerOptions(bad).ok());
  bad.min_support = 1;
  bad.max_length = 0;
  EXPECT_FALSE(ValidateMinerOptions(bad).ok());
  bad.max_length = 3;
  bad.item_class = {0, 1, 2};
  EXPECT_FALSE(ValidateMinerOptions(bad).ok());
}

TEST(MinerOptionsTest, ItemClassesMustCoverTheDatabase) {
  TransactionDb db;
  db.AddTransaction({0, 1, 2});
  MinerOptions opts;
  opts.item_class = {0, 1};  // item 2 has no class
  EXPECT_EQ(MineFrequentItemsets(db, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.item_class = {0, 1, 1};
  EXPECT_TRUE(MineFrequentItemsets(db, opts).ok());
}

// The anchors run on FP-Growth and on the oracle, so the oracle the sweeps
// trust is itself checked against hand-derived answers.
struct Engine {
  const char* name;
  Result<std::vector<FrequentItemset>> (*mine)(const TransactionDb&,
                                               const MinerOptions&);
};

class AnchorTest : public ::testing::TestWithParam<Engine> {
 protected:
  Result<std::vector<FrequentItemset>> Mine(const TransactionDb& db,
                                            const MinerOptions& opts) const {
    return GetParam().mine(db, opts);
  }
};

TEST_P(AnchorTest, TextbookSupports) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());

  // Hand-checked supports at minsup 3.
  EXPECT_EQ(m.at(Itemset({0})), 4u);        // f
  EXPECT_EQ(m.at(Itemset({1})), 4u);        // c
  EXPECT_EQ(m.at(Itemset({2})), 3u);        // a
  EXPECT_EQ(m.at(Itemset({3})), 3u);        // b
  EXPECT_EQ(m.at(Itemset({4})), 3u);        // m
  EXPECT_EQ(m.at(Itemset({5})), 3u);        // p
  EXPECT_EQ(m.at(Itemset({0, 1})), 3u);     // fc
  EXPECT_EQ(m.at(Itemset({0, 2})), 3u);     // fa
  EXPECT_EQ(m.at(Itemset({1, 2})), 3u);     // ca
  EXPECT_EQ(m.at(Itemset({0, 4})), 3u);     // fm
  EXPECT_EQ(m.at(Itemset({1, 4})), 3u);     // cm
  EXPECT_EQ(m.at(Itemset({2, 4})), 3u);     // am
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);     // cp
  EXPECT_EQ(m.at(Itemset({0, 1, 2})), 3u);  // fca
  EXPECT_EQ(m.at(Itemset({0, 1, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 2, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({1, 2, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);  // fcam
  // b pairs are all below minsup.
  EXPECT_EQ(m.count(Itemset({0, 3})), 0u);
  EXPECT_EQ(m.count(Itemset({1, 3})), 0u);
  EXPECT_EQ(m.size(), 18u);
}

TEST_P(AnchorTest, ClassCapsPruneTextbook) {
  // f, c, a, b are class 0 and m, p class 1, at most one of each: the six
  // singletons and the four frequent cross-class pairs fm, cm, am, cp.
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.item_class = {0, 0, 0, 0, 1, 1};
  opts.max_class_items = {1, 1};
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.size(), 10u);
  EXPECT_EQ(m.at(Itemset({0, 4})), 3u);  // fm
  EXPECT_EQ(m.at(Itemset({1, 4})), 3u);  // cm
  EXPECT_EQ(m.at(Itemset({2, 4})), 3u);  // am
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);  // cp
  EXPECT_EQ(m.count(Itemset({0, 1})), 0u);  // fc: two class-0 items

  // A zero cap removes the class outright.
  opts.max_class_items = {0, 2};
  result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  m = AsMap(result.value());
  EXPECT_EQ(m.size(), 2u);  // m, p; mp has support 2
  EXPECT_EQ(m.at(Itemset({4})), 3u);
  EXPECT_EQ(m.at(Itemset({5})), 3u);
}

TEST_P(AnchorTest, MaxLengthCap) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.max_length = 2;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  for (const auto& fs : result.value()) {
    EXPECT_LE(fs.items.size(), 2u);
  }
  // All 6 singletons + 7 pairs.
  EXPECT_EQ(result.value().size(), 13u);
}

TEST_P(AnchorTest, MinSupportOneFindsEverything) {
  TransactionDb db;
  db.AddTransaction({0, 1});
  db.AddTransaction({1, 2});
  MinerOptions opts;
  opts.min_support = 1;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.size(), 5u);  // {0},{1},{2},{01},{12}
  EXPECT_EQ(m.at(Itemset({1})), 2u);
}

TEST_P(AnchorTest, NoFrequentItems) {
  TransactionDb db;
  db.AddTransaction({0});
  db.AddTransaction({1});
  MinerOptions opts;
  opts.min_support = 2;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST_P(AnchorTest, IncludeEmptyItemset) {
  TransactionDb db;
  db.AddTransaction({0});
  db.AddTransaction({0, 1});
  MinerOptions opts;
  opts.min_support = 1;
  opts.include_empty = true;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.at(Itemset()), 2u);
}

TEST_P(AnchorTest, EmptyDatabase) {
  TransactionDb db;
  MinerOptions opts;
  opts.min_support = 1;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, AnchorTest,
    ::testing::Values(Engine{"FpGrowth", &MineFrequentItemsets},
                      Engine{"BruteForceOracle", &BruteForceMine}),
    [](const ::testing::TestParamInfo<Engine>& info) {
      return std::string(info.param.name);
    });

// The closed and maximal anchors check the oracle's filters, which decide
// the cube builder's cells in its tests (tests/cube/builder_oracle_test.cc).
TEST(OracleAnchorTest, ClosedModeTextbook) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  auto result = oracle::Mine(db, opts, MineMode::kClosed);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  // Closed sets at minsup 3: {f}:4, {c}:4, {b}:3, {cp}:3, {fcam}:3, {fc}...
  // {fc} support 3 == {fcam} support -> not closed. {f}:4 closed, {c}:4
  // closed, {fcam}:3 closed, {cp}:3 closed, {b}:3 closed.
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.at(Itemset({0})), 4u);
  EXPECT_EQ(m.at(Itemset({1})), 4u);
  EXPECT_EQ(m.at(Itemset({3})), 3u);
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);
}

TEST(OracleAnchorTest, MaximalModeTextbook) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  auto result = oracle::Mine(db, opts, MineMode::kMaximal);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(Itemset({3})), 3u);           // b
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);        // cp
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);  // fcam
}

// ---------------------------------------------------------------------------
// Randomized equivalence sweep: FP-Growth's capped enumeration, with and
// without the empty itemset (the cube builder always asks for it), must
// match the oracle exactly on random databases, for random item classes
// under every cap pair the cube tests use (and none).
// ---------------------------------------------------------------------------

struct SweepParams {
  uint64_t seed;
  size_t num_transactions;
  size_t num_items;
  double item_prob;
  uint64_t min_support;
  uint32_t max_length;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(EquivalenceSweep, FpGrowthMatchesOracle) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  TransactionDb db;
  for (size_t t = 0; t < p.num_transactions; ++t) {
    std::vector<ItemId> items;
    for (size_t i = 0; i < p.num_items; ++i) {
      if (rng.NextBool(p.item_prob)) items.push_back(static_cast<ItemId>(i));
    }
    db.AddTransaction(std::move(items));
  }
  std::vector<uint8_t> classes;
  for (size_t i = 0; i < db.NumItems(); ++i) {
    classes.push_back(rng.NextBool(0.5) ? 1 : 0);
  }

  constexpr uint32_t kNoCap = std::numeric_limits<uint32_t>::max();
  const std::array<uint32_t, 2> kCaps[] = {
      {kNoCap, kNoCap}, {1, 1}, {2, 1}, {3, 2}, {2, 0}, {0, 3}};
  for (bool capped : {false, true}) {
    for (const auto& caps : kCaps) {
      if (!capped && caps[0] != kNoCap) continue;
      for (bool include_empty : {false, true}) {
        MinerOptions opts;
        opts.min_support = p.min_support;
        opts.max_length = p.max_length;
        if (capped) opts.item_class = classes;
        opts.max_class_items = caps;
        opts.include_empty = include_empty;
        auto expected = BruteForceMine(db, opts);
        ASSERT_TRUE(expected.ok());
        auto actual = MineFrequentItemsets(db, opts);
        ASSERT_TRUE(actual.ok());
        oracle::SortItemsets(&actual.value());
        ASSERT_EQ(actual.value(), expected.value())
            << "capped=" << capped << " caps=" << caps[0] << "," << caps[1]
            << " include_empty=" << include_empty;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, EquivalenceSweep,
    ::testing::Values(
        SweepParams{101, 30, 8, 0.4, 2, 32},
        SweepParams{102, 50, 6, 0.5, 3, 32},
        SweepParams{103, 20, 10, 0.3, 2, 4},   // length-capped
        SweepParams{104, 80, 5, 0.6, 5, 32},   // dense
        SweepParams{105, 40, 12, 0.15, 2, 3},  // sparse, capped
        SweepParams{106, 10, 4, 0.9, 2, 32},   // tiny and very dense
        SweepParams{107, 60, 7, 0.45, 6, 32},
        SweepParams{108, 25, 9, 0.35, 1, 32},   // minsup 1
        SweepParams{109, 40, 10, 0.6, 3, 5}));  // dense, capped at 3 + 2

}  // namespace
}  // namespace fpm
}  // namespace scube
