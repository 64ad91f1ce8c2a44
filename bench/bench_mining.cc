// EFF-MINE: the mining cost behind §3's efficiency discussion. FP-Growth
// (the Borgelt-FPGrowth stand-in) across minimum-support levels, in all and
// closed mode. Expected shape: time and output grow as support falls;
// closed-mode output is a fraction of all-mode output on correlated data.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"

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

void RunMiner(benchmark::State& state, fpm::MineMode mode) {
  const fpm::TransactionDb& db = SharedDb();
  fpm::MinerOptions opts;
  opts.min_support = static_cast<uint64_t>(state.range(0));
  opts.mode = mode;
  opts.max_length = 5;
  size_t found = 0;
  for (auto _ : state) {
    auto result = fpm::MineFrequentItemsets(db, opts);
    found = result.value().size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["itemsets"] = static_cast<double>(found);
}

void BM_FpGrowth(benchmark::State& state) {
  RunMiner(state, fpm::MineMode::kAll);
}
void BM_FpGrowthClosed(benchmark::State& state) {
  RunMiner(state, fpm::MineMode::kClosed);
}

// Support sweep: 5%, 1%, 0.2% of 20k transactions.
BENCHMARK(BM_FpGrowth)->Arg(1000)->Arg(200)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FpGrowthClosed)->Arg(1000)->Arg(200)->Arg(40)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
