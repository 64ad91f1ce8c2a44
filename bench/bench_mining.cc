// EFF-MINE: the mining cost behind §3's efficiency discussion.
//
//   BM_FpGrowth          FP-Growth (the Borgelt-FPGrowth stand-in) across
//                        minimum-support levels on correlated transactions.
//                        Expected shape: time and output grow as support
//                        falls.
//   BM_FpGrowthCapped /  On a finalTable-shaped database (3 SA attributes;
//   BM_FpGrowthUncapped  5 CA attributes, 3 of them set-valued; 100k rows),
//                        enumeration with the cube's SA/CA caps (3, 2)
//                        pushed into the recursion against enumeration with
//                        only the length bound 3 + 2, at the perfbench
//                        build's minimum support (20).
//   BM_BuildClosedCube   BuildSegregationCube in kClosed on that table, one
//                        fill thread: capped mining plus the fill, whose
//                        cover test decides closedness.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "common/random.h"
#include "cube/builder.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"
#include "relational/transactions.h"

namespace {

using namespace scube;

// Correlated transactions resembling an encoded finalTable: a few
// high-frequency demographic items plus correlated context items.
fpm::TransactionDb MakeDb(size_t num_transactions, uint64_t seed = 42) {
  Rng rng(seed);
  fpm::TransactionDb db;
  for (size_t t = 0; t < num_transactions; ++t) {
    std::vector<fpm::ItemId> items;
    items.push_back(rng.NextBool(0.3) ? 0 : 1);            // gender
    items.push_back(2 + static_cast<fpm::ItemId>(rng.NextBounded(4)));  // age
    fpm::ItemId region = 6 + static_cast<fpm::ItemId>(rng.NextBounded(2));
    items.push_back(region);
    // Province correlated with region.
    items.push_back(8 + (region - 6) * 10 +
                    static_cast<fpm::ItemId>(rng.NextZipf(10, 1.3)) - 1);
    // Sector; mildly correlated with gender.
    fpm::ItemId sector = 28 + static_cast<fpm::ItemId>(
        rng.NextZipf(20, items[0] == 0 ? 1.1 : 1.4)) - 1;
    items.push_back(sector);
    db.AddTransaction(std::move(items));
  }
  return db;
}

const fpm::TransactionDb& SharedDb() {
  static const fpm::TransactionDb db = MakeDb(20000);
  return db;
}

void BM_FpGrowth(benchmark::State& state) {
  const fpm::TransactionDb& db = SharedDb();
  fpm::MinerOptions opts;
  opts.min_support = static_cast<uint64_t>(state.range(0));
  opts.max_length = 5;
  size_t found = 0;
  for (auto _ : state) {
    auto result = fpm::MineFrequentItemsets(db, opts);
    found = result.value().size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["itemsets"] = static_cast<double>(found);
}

// Support sweep: 5%, 1%, 0.2% of 20k transactions.
BENCHMARK(BM_FpGrowth)->Arg(1000)->Arg(200)->Arg(40)
    ->Unit(benchmark::kMillisecond);

// A finalTable of directors: gender, age bin and birthplace (SA); residence
// region and province, and the set-valued sector, headquarters region and
// headquarters province of the boards they sit on (CA); a board cluster
// per row (unit).
relational::Table MakeFinalTable(size_t rows, uint64_t seed = 7) {
  using relational::AttributeKind;
  using relational::ColumnType;
  relational::Schema schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"age_bin", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"birthplace", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"residence_region", ColumnType::kCategorical, AttributeKind::kContext},
      {"residence_province", ColumnType::kCategorical,
       AttributeKind::kContext},
      {"sector", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"hq_region", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"hq_province", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  relational::Table table(schema);
  Rng rng(seed);
  const char* kAges[] = {"18-38", "39-50", "51-65", "66+"};
  for (size_t i = 0; i < rows; ++i) {
    const bool female = rng.NextBool(0.25);
    const uint64_t region = rng.NextBounded(3);
    const uint64_t province = region * 12 + rng.NextZipf(12, 1.2) - 1;
    // One or two boards, mostly in the director's own region.
    std::string sectors = "{", hq_regions = "{", hq_provinces = "{";
    const size_t boards = 1 + (rng.NextBool(0.3) ? 1 : 0);
    for (size_t b = 0; b < boards; ++b) {
      const char* sep = b > 0 ? "," : "";
      const uint64_t hq_region =
          rng.NextBool(0.8) ? region : rng.NextBounded(3);
      const uint64_t hq_province = hq_region * 12 + rng.NextZipf(12, 1.4) - 1;
      sectors += sep + std::string("s") +
                 std::to_string(rng.NextZipf(15, female ? 1.0 : 1.3) - 1);
      hq_regions += sep + std::string("r") + std::to_string(hq_region);
      hq_provinces += sep + std::string("p") + std::to_string(hq_province);
    }
    const char* age = kAges[rng.NextBounded(4)];
    const std::string birthplace =
        rng.NextBool(0.85) ? "domestic"
                           : "b" + std::to_string(rng.NextZipf(8, 1.1));
    auto status = table.AppendRowFromStrings(
        {female ? "F" : "M", age, birthplace,
         "r" + std::to_string(region), "p" + std::to_string(province),
         sectors + "}", hq_regions + "}", hq_provinces + "}",
         "c" + std::to_string(rng.NextBounded(400))});
    if (!status.ok()) std::abort();
  }
  return table;
}

const relational::Table& SharedFinalTable() {
  static const relational::Table table = MakeFinalTable(100000);
  return table;
}

const relational::EncodedRelation& SharedEncoded() {
  static const relational::EncodedRelation encoded =
      relational::EncodeForAnalysis(SharedFinalTable()).value();
  return encoded;
}

constexpr uint64_t kCubeMinSupport = 20;  // perfbench's build workload

void RunFinalTableMiner(benchmark::State& state, bool capped) {
  const relational::EncodedRelation& encoded = SharedEncoded();
  fpm::MinerOptions opts;
  opts.min_support = kCubeMinSupport;
  opts.max_length = 5;
  opts.include_empty = true;
  if (capped) {
    for (fpm::ItemId item = 0; item < encoded.db.NumItems(); ++item) {
      opts.item_class.push_back(encoded.catalog.info(item).kind ==
                                        relational::AttributeKind::kSegregation
                                    ? 0
                                    : 1);
    }
    opts.max_class_items = {3, 2};
  }
  size_t found = 0;
  for (auto _ : state) {
    auto result = fpm::MineFrequentItemsets(encoded.db, opts);
    found = result.value().size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["itemsets"] = static_cast<double>(found);
}

void BM_FpGrowthCapped(benchmark::State& state) {
  RunFinalTableMiner(state, /*capped=*/true);
}
void BM_FpGrowthUncapped(benchmark::State& state) {
  RunFinalTableMiner(state, /*capped=*/false);
}
BENCHMARK(BM_FpGrowthCapped)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FpGrowthUncapped)->Unit(benchmark::kMillisecond);

void BM_BuildClosedCube(benchmark::State& state) {
  const relational::EncodedRelation& encoded = SharedEncoded();
  cube::CubeBuilderOptions opts;
  opts.mode = fpm::MineMode::kClosed;
  opts.min_support = kCubeMinSupport;
  opts.max_sa_items = 3;
  opts.max_ca_items = 2;
  opts.num_threads = 1;
  cube::CubeBuildStats stats;
  for (auto _ : state) {
    auto built = cube::BuildSegregationCube(encoded, opts, &stats);
    benchmark::DoNotOptimize(built);
  }
  state.counters["candidates"] = static_cast<double>(stats.mined_itemsets);
  state.counters["cells"] = static_cast<double>(stats.cells_created);
  state.counters["mine_ms"] = stats.seconds_mining * 1e3;
  state.counters["fill_ms"] =
      (stats.seconds_grouping + stats.seconds_filling) * 1e3;
}
BENCHMARK(BM_BuildClosedCube)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
