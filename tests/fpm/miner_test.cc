// FP-Growth miner tests: hand-checked anchors on a tiny database, run on
// both FP-Growth and the brute-force oracle, plus randomized sweeps of
// FP-Growth against the oracle in every mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/random.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"

namespace scube {
namespace fpm {
namespace {

// ---------------------------------------------------------------------------
// Brute-force oracle: exhaustive DFS with a transaction scan per candidate.
// Closedness and maximality are decided from their definitions over the
// length-bounded frequent collection, independently of the filters the
// engine uses. Exponential; small inputs only.
// ---------------------------------------------------------------------------

uint64_t ScanSupport(const TransactionDb& db, const std::vector<ItemId>& items) {
  uint64_t support = 0;
  for (uint32_t tid = 0; tid < db.NumTransactions(); ++tid) {
    const auto& t = db.Transaction(tid);
    if (std::includes(t.begin(), t.end(), items.begin(), items.end())) {
      ++support;
    }
  }
  return support;
}

void Dfs(const TransactionDb& db, const MinerOptions& options,
         std::vector<ItemId>* prefix, ItemId next_item,
         std::vector<FrequentItemset>* out) {
  if (prefix->size() >= options.max_length) return;
  for (ItemId item = next_item; item < db.NumItems(); ++item) {
    prefix->push_back(item);
    uint64_t support = ScanSupport(db, *prefix);
    if (support >= options.min_support) {
      out->push_back({Itemset(*prefix), support});
      Dfs(db, options, prefix, item + 1, out);
    }
    prefix->pop_back();
  }
}

Result<std::vector<FrequentItemset>> BruteForceMine(
    const TransactionDb& db, const MinerOptions& options) {
  SCUBE_RETURN_IF_ERROR(ValidateMinerOptions(options));
  std::vector<FrequentItemset> frequent;
  if (options.include_empty) {
    frequent.push_back({Itemset(), db.NumTransactions()});
  }
  std::vector<ItemId> prefix;
  Dfs(db, options, &prefix, 0, &frequent);

  // X is dropped when a proper superset in the collection has equal support
  // (closed) or exists at all (maximal).
  std::vector<FrequentItemset> out;
  for (const FrequentItemset& x : frequent) {
    bool dropped =
        options.mode != MineMode::kAll &&
        std::any_of(frequent.begin(), frequent.end(),
                    [&](const FrequentItemset& y) {
                      return y.items.size() > x.items.size() &&
                             x.items.IsSubsetOf(y.items) &&
                             (options.mode == MineMode::kMaximal ||
                              y.support == x.support);
                    });
    if (!dropped) out.push_back(x);
  }
  SortItemsets(&out);
  return out;
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

TEST_P(AnchorTest, ClosedModeTextbook) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.mode = MineMode::kClosed;
  auto result = Mine(db, opts);
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

TEST_P(AnchorTest, MaximalModeTextbook) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.mode = MineMode::kMaximal;
  auto result = Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(Itemset({3})), 3u);           // b
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);        // cp
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);  // fcam
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

// ---------------------------------------------------------------------------
// Randomized equivalence sweep: FP-Growth in every mode, with and without
// the empty itemset (the cube builder always asks for it), must match the
// oracle exactly on random databases.
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

  for (MineMode mode : {MineMode::kAll, MineMode::kClosed, MineMode::kMaximal}) {
    for (bool include_empty : {false, true}) {
      MinerOptions opts;
      opts.min_support = p.min_support;
      opts.max_length = p.max_length;
      opts.mode = mode;
      opts.include_empty = include_empty;
      auto expected = BruteForceMine(db, opts);
      ASSERT_TRUE(expected.ok());
      auto actual = MineFrequentItemsets(db, opts);
      ASSERT_TRUE(actual.ok());
      EXPECT_EQ(actual.value().size(), expected.value().size())
          << "mode=" << static_cast<int>(mode)
          << " include_empty=" << include_empty;
      ASSERT_EQ(actual.value(), expected.value())
          << "mode=" << static_cast<int>(mode)
          << " include_empty=" << include_empty;
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
