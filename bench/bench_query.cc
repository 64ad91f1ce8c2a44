// EFF-QUERY: SCubeQL serving cost. Measures queries/sec through the
// QueryService, every statement executing on the caller's thread, under
// two regimes:
//   - cold cache: every query misses and executes against the cube,
//   - hot cache: repeats answered straight from the LRU result cache.
// Hot vs cold shows the cache-hit speedup.
//
// The Indexed-vs-scan section pits each CubeView secondary index against
// the naive full-scan it replaced, side by side on the same sealed cube:
// slice groups vs coordinate scans, posting-list dice vs subset scans,
// ranked-order top-k vs filter+sort, adjacency surprises vs per-cell hash
// probes, adjacency reversals vs the O(cells^2) children scan.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cube/cube_view.h"
#include "cube/explorer.h"
#include "datagen/scenarios.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "scube/pipeline.h"

namespace {

using namespace scube;

query::CubeStore& Store() {
  static query::CubeStore* store = [] {
    auto s = datagen::GenerateScenario(datagen::ItalianConfig(0.002));
    if (!s.ok()) {
      std::fprintf(stderr, "scenario: %s\n", s.status().ToString().c_str());
      std::abort();
    }
    pipeline::PipelineConfig config;
    config.unit_source = pipeline::UnitSource::kGroupAttribute;
    config.group_unit_attribute = "sector";
    config.cube.min_support = 20;
    config.cube.mode = fpm::MineMode::kAll;
    config.cube.max_sa_items = 2;
    config.cube.max_ca_items = 1;
    auto result = pipeline::RunPipeline(s->inputs, config);
    if (!result.ok()) {
      std::fprintf(stderr, "pipeline: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    auto* st = new query::CubeStore();
    query::PublishPipelineResult(st, "default", std::move(*result));
    return st;
  }();
  return *store;
}

// A mixed workload: scan-shaped analytics, navigation and explorer verbs.
std::vector<std::string> Workload(size_t n) {
  const std::vector<std::string> pool = {
      "TOPK 5 BY dissimilarity WHERE T >= 30",
      "TOPK 10 BY gini WHERE T >= 50 AND M >= 10",
      "TOPK 3 BY isolation",
      "DICE sa=gender=F",
      "DICE ca=residence_region=north WHERE T >= 30",
      "SLICE sa=gender=F",
      "SLICE sa=gender=F | ca=residence_region=north",
      "DRILLDOWN sa=gender=F",
      "ROLLUP sa=gender=F & age_bin=young",
      "SURPRISES BY dissimilarity MINDELTA 0.05 LIMIT 10",
      "REVERSALS MINGAP 0.05 LIMIT 10",
      "TOPK 8 BY atkinson ORDER BY T DESC",
  };
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(pool[i % pool.size()]);
  return out;
}

// Cold cache: capacity 0, so every query parses, plans and executes.
void BM_QueryCold(benchmark::State& state) {
  query::ServiceOptions options;
  options.cache_capacity = 0;
  query::QueryService service(&Store(), options);
  auto workload = Workload(64);
  for (auto _ : state) {
    auto responses = service.ExecuteBatch(workload);
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
}
BENCHMARK(BM_QueryCold)->UseRealTime()->Unit(benchmark::kMillisecond);

// Hot cache: one warmup batch, then every query is an LRU hit.
void BM_QueryHot(benchmark::State& state) {
  query::ServiceOptions options;
  options.cache_capacity = 256;
  query::QueryService service(&Store(), options);
  auto workload = Workload(64);
  auto warmup = service.ExecuteBatch(workload);
  benchmark::DoNotOptimize(warmup);
  for (auto _ : state) {
    auto responses = service.ExecuteBatch(workload);
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(workload.size()));
  state.counters["hit_rate"] = [&] {
    auto stats = service.cache_stats();
    return stats.hits + stats.misses == 0
               ? 0.0
               : static_cast<double>(stats.hits) /
                     static_cast<double>(stats.hits + stats.misses);
  }();
}
BENCHMARK(BM_QueryHot)->UseRealTime()->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Indexed vs full-scan: the same questions answered through the CubeView's
// secondary indexes and through the pre-index naive scans.
// ---------------------------------------------------------------------------

const cube::CubeView& View() {
  static const query::CubeStore::Snapshot snapshot = Store().Get("default");
  return *snapshot;
}

// First item of the given attribute name (the bench cube always has it).
fpm::ItemId ItemFor(const cube::CubeView& view, const char* attr) {
  const auto& catalog = view.catalog();
  for (size_t i = 0; i < catalog.size(); ++i) {
    if (catalog.info(static_cast<fpm::ItemId>(i)).attr_name == attr) {
      return static_cast<fpm::ItemId>(i);
    }
  }
  std::fprintf(stderr, "no item for attribute '%s'\n", attr);
  std::abort();
}

// SLICE sa=gender=F: slice-group span vs exact-coordinate scan.
void BM_SliceBySa(benchmark::State& state) {
  const cube::CubeView& view = View();
  fpm::Itemset sa({ItemFor(view, "gender")});
  bool indexed = state.range(0) == 1;
  size_t hits = 0;
  for (auto _ : state) {
    if (indexed) {
      auto ids = view.SliceBySa(sa);
      hits = ids.size();
      benchmark::DoNotOptimize(ids);
    } else {
      std::vector<const cube::CubeCell*> out;
      for (const cube::CubeCell& cell : view.Cells()) {
        if (cell.coords.sa == sa) out.push_back(&cell);
      }
      hits = out.size();
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetLabel(indexed ? "indexed" : "full-scan");
  state.counters["hits"] = static_cast<double>(hits);
  state.counters["cells"] = static_cast<double>(view.NumCells());
}
BENCHMARK(BM_SliceBySa)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

// DICE sa=gender=F ca=residence_region=...: posting intersection vs
// subset-filter scan.
void BM_Dice(benchmark::State& state) {
  const cube::CubeView& view = View();
  fpm::Itemset sa({ItemFor(view, "gender")});
  fpm::Itemset ca({ItemFor(view, "residence_region")});
  bool indexed = state.range(0) == 1;
  size_t hits = 0;
  for (auto _ : state) {
    if (indexed) {
      auto ids = view.Dice(sa, ca);
      hits = ids.size();
      benchmark::DoNotOptimize(ids);
    } else {
      std::vector<const cube::CubeCell*> out;
      for (const cube::CubeCell& cell : view.Cells()) {
        if (sa.IsSubsetOf(cell.coords.sa) && ca.IsSubsetOf(cell.coords.ca)) {
          out.push_back(&cell);
        }
      }
      hits = out.size();
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetLabel(indexed ? "indexed" : "full-scan");
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_Dice)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

// TOPK 10: ranked-order walk vs filter + full sort.
void BM_TopK(benchmark::State& state) {
  const cube::CubeView& view = View();
  cube::ExplorerOptions options;
  bool indexed = state.range(0) == 1;
  for (auto _ : state) {
    if (indexed) {
      auto top = cube::TopSegregatedContexts(
          view, indexes::IndexKind::kDissimilarity, 10, options);
      benchmark::DoNotOptimize(top);
    } else {
      std::vector<cube::RankedCell> ranked;
      for (const cube::CubeCell& cell : view.Cells()) {
        if (!cube::PassesExplorerFilters(cell, options)) continue;
        ranked.push_back(cube::RankedCell{
            &cell, cell.Value(indexes::IndexKind::kDissimilarity)});
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const cube::RankedCell& a, const cube::RankedCell& b) {
                  if (a.value != b.value) return a.value > b.value;
                  return a.cell->coords < b.cell->coords;
                });
      if (ranked.size() > 10) ranked.resize(10);
      benchmark::DoNotOptimize(ranked);
    }
  }
  state.SetLabel(indexed ? "ranked-order" : "filter+sort");
}
BENCHMARK(BM_TopK)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

// SURPRISES: adjacency-list parent walks vs per-cell hash probes.
void BM_Surprises(benchmark::State& state) {
  const cube::CubeView& view = View();
  cube::ExplorerOptions options;
  bool indexed = state.range(0) == 1;
  size_t findings = 0;
  for (auto _ : state) {
    if (indexed) {
      auto out = cube::DrillDownSurprises(
          view, indexes::IndexKind::kDissimilarity, 0.05, options);
      findings = out.size();
      benchmark::DoNotOptimize(out);
    } else {
      std::vector<cube::SurpriseFinding> out;
      for (const cube::CubeCell& cell : view.Cells()) {
        if (!cube::PassesExplorerFilters(cell, options)) continue;
        if (cell.coords.sa.empty() && cell.coords.ca.empty()) continue;
        double best = 0.0;
        bool any = false;
        auto consider = [&](const cube::CubeCell* parent) {
          if (parent == nullptr || !parent->indexes.defined ||
              parent->coords.sa.empty()) {
            return;
          }
          any = true;
          best = std::max(
              best, parent->Value(indexes::IndexKind::kDissimilarity));
        };
        for (fpm::ItemId item : cell.coords.sa.items()) {
          consider(view.Find(cell.coords.sa.Minus(fpm::Itemset({item})),
                             cell.coords.ca));
        }
        for (fpm::ItemId item : cell.coords.ca.items()) {
          consider(view.Find(cell.coords.sa,
                             cell.coords.ca.Minus(fpm::Itemset({item}))));
        }
        if (!any) continue;
        double delta =
            cell.Value(indexes::IndexKind::kDissimilarity) - best;
        if (delta >= 0.05) {
          out.push_back(cube::SurpriseFinding{
              &cell, cell.Value(indexes::IndexKind::kDissimilarity), best,
              delta});
        }
      }
      cube::SortSurprises(&out);
      findings = out.size();
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetLabel(indexed ? "adjacency" : "hash-probe");
  state.counters["findings"] = static_cast<double>(findings);
}
BENCHMARK(BM_Surprises)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

// REVERSALS: adjacency children vs a full scan per parent (O(cells^2)).
void BM_Reversals(benchmark::State& state) {
  const cube::CubeView& view = View();
  cube::ExplorerOptions options;
  bool indexed = state.range(0) == 1;
  size_t findings = 0;
  for (auto _ : state) {
    if (indexed) {
      auto out = cube::FindGranularityReversals(
          view, indexes::IndexKind::kDissimilarity, 0.05, options);
      findings = out.size();
      benchmark::DoNotOptimize(out);
    } else {
      std::vector<cube::GranularityReversal> out;
      for (const cube::CubeCell& parent : view.Cells()) {
        if (!cube::PassesExplorerFilters(parent, options)) continue;
        std::vector<const cube::CubeCell*> children;
        for (const cube::CubeCell& child : view.Cells()) {  // the old scan
          if (child.coords.sa == parent.coords.sa &&
              child.coords.ca.size() == parent.coords.ca.size() + 1 &&
              parent.coords.ca.IsSubsetOf(child.coords.ca) &&
              child.indexes.defined &&
              child.context_size >= options.min_context_size &&
              child.minority_size >= options.min_minority_size) {
            children.push_back(&child);
          }
        }
        if (children.size() < 2) continue;
        double pv = parent.Value(indexes::IndexKind::kDissimilarity);
        bool all_above = true, all_below = true;
        double min_child = 1e300, max_child = -1e300;
        for (const cube::CubeCell* child : children) {
          double v = child->Value(indexes::IndexKind::kDissimilarity);
          min_child = std::min(min_child, v);
          max_child = std::max(max_child, v);
          if (v < pv + 0.05) all_above = false;
          if (v > pv - 0.05) all_below = false;
        }
        if (all_above) {
          out.push_back(cube::GranularityReversal{&parent, children, pv,
                                                  min_child, true});
        } else if (all_below) {
          out.push_back(cube::GranularityReversal{&parent, children, pv,
                                                  max_child, false});
        }
      }
      cube::SortReversals(&out);
      findings = out.size();
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetLabel(indexed ? "adjacency" : "full-scan");
  state.counters["findings"] = static_cast<double>(findings);
}
BENCHMARK(BM_Reversals)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

}  // namespace

// Not BENCHMARK_MAIN(): the trajectory record (BENCH_query.json) is
// written by default so CI can archive it, while --benchmark_out=...
// still overrides.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Exact flag only: --benchmark_out_format alone must not suppress the
    // default output file.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_query.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
