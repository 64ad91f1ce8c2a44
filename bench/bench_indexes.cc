// INDEXES: throughput of the six segregation indexes (§2) over growing unit
// counts, the O(n log n) Gini alone, and the permutation significance test.
// ComputeAllIndexes runs on three unit mixes: m_i drawn uniformly from
// [0, t_i]; the sparse-minority mix, where 77% of a cell's units hold no
// minority member (the share measured over the perfbench `build` cube) and
// take the exact m_i = 0 terms; and the cube-shaped mix, sparse too but
// with units no larger than the largest perfbench unit (51), which the
// fill serves from its unit-term table. The first two draw t_i up to 500,
// above the table bound, so they measure the direct path.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "indexes/segregation_index.h"
#include "indexes/significance.h"

namespace {

using namespace scube;

indexes::GroupDistribution MakeDistribution(size_t num_units, uint64_t seed) {
  Rng rng(seed);
  indexes::GroupDistribution d;
  for (size_t i = 0; i < num_units; ++i) {
    uint64_t t = 1 + rng.NextBounded(500);
    uint64_t m = rng.NextBounded(t + 1);
    d.AddUnit(t, m);
  }
  return d;
}

// Units of a cube cell: 77% with m_i = 0, the rest with m_i uniform in
// [1, t_i].
indexes::GroupDistribution MakeSparseMinorityDistribution(size_t num_units,
                                                          uint64_t seed) {
  Rng rng(seed);
  indexes::GroupDistribution d;
  for (size_t i = 0; i < num_units; ++i) {
    uint64_t t = 1 + rng.NextBounded(500);
    uint64_t m = rng.NextBool(0.77) ? 0 : 1 + rng.NextBounded(t);
    d.AddUnit(t, m);
  }
  return d;
}

// Units of a cube cell as the fill sees them: mostly tiny (the perfbench
// median is 2 members), none above 51, 77% with m_i = 0.
constexpr uint64_t kLargestCubeUnit = 51;
indexes::GroupDistribution MakeCubeShapedDistribution(size_t num_units,
                                                      uint64_t seed) {
  Rng rng(seed);
  indexes::GroupDistribution d;
  for (size_t i = 0; i < num_units; ++i) {
    uint64_t t = 1 + rng.NextBounded(rng.NextBool(0.8) ? 4 : kLargestCubeUnit);
    uint64_t m = rng.NextBool(0.77) ? 0 : 1 + rng.NextBounded(t);
    d.AddUnit(t, m);
  }
  return d;
}

void RunAllSixIndexes(benchmark::State& state,
                      const indexes::GroupDistribution& d) {
  for (auto _ : state) {
    auto all = indexes::ComputeAllIndexes(d);
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// As the fill calls the kernel: one shared table, one reused scratch.
void RunAllSixIndexesWithTable(benchmark::State& state,
                               const indexes::GroupDistribution& d,
                               uint64_t max_total) {
  auto table = indexes::UnitTermTable::Build(max_total, {});
  if (!table.ok()) {
    state.SkipWithError(table.status().ToString().c_str());
    return;
  }
  indexes::IndexScratch scratch;
  for (auto _ : state) {
    auto all = indexes::ComputeAllIndexes(d, table.value(), &scratch);
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_AllSixIndexes(benchmark::State& state) {
  RunAllSixIndexes(state,
                   MakeDistribution(static_cast<size_t>(state.range(0)), 3));
}
void BM_AllSixIndexesSparseMinority(benchmark::State& state) {
  RunAllSixIndexes(state, MakeSparseMinorityDistribution(
                              static_cast<size_t>(state.range(0)), 3));
}
BENCHMARK(BM_AllSixIndexes)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AllSixIndexesSparseMinority)->Arg(100)->Arg(1000)->Arg(10000)
    ->Arg(100000)->Unit(benchmark::kMicrosecond);

// 2060 units: the mean of a perfbench `build` cell. Table = every unit's
// terms from the table; Direct = an empty table, every unit computed.
void BM_AllSixIndexesCubeShapedTable(benchmark::State& state) {
  RunAllSixIndexesWithTable(
      state,
      MakeCubeShapedDistribution(static_cast<size_t>(state.range(0)), 3),
      kLargestCubeUnit);
}
void BM_AllSixIndexesCubeShapedDirect(benchmark::State& state) {
  RunAllSixIndexesWithTable(
      state,
      MakeCubeShapedDistribution(static_cast<size_t>(state.range(0)), 3), 0);
}
BENCHMARK(BM_AllSixIndexesCubeShapedTable)->Arg(100)->Arg(2060)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_AllSixIndexesCubeShapedDirect)->Arg(100)->Arg(2060)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_GiniFast(benchmark::State& state) {
  auto d = MakeDistribution(static_cast<size_t>(state.range(0)), 5);
  for (auto _ : state) {
    auto g = indexes::Gini(d);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_GiniFast)->Arg(100)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMicrosecond);

void BM_PermutationTest(benchmark::State& state) {
  auto d = MakeDistribution(50, 9);
  indexes::SignificanceOptions opts;
  opts.num_samples = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto r = indexes::PermutationTest(indexes::IndexKind::kDissimilarity, d,
                                      opts);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PermutationTest)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
