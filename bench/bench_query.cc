// EFF-QUERY: indexed vs full-scan ablations. Each CubeView secondary
// index is pitted against the naive full-scan it replaced, side by side on
// the same sealed cube: slice groups vs coordinate scans, posting-list
// dice vs subset scans, ranked-order top-k vs filter+sort, and for
// SURPRISES and REVERSALS the seal-time findings walk vs the per-cell scan
// that is still their fallback. Serving cost end to end (the result cache
// on and off, over HTTP) is perfbench's `explore` workload.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cube/cube_view.h"
#include "cube/explorer.h"
#include "datagen/scenarios.h"
#include "scube/pipeline.h"

namespace {

using namespace scube;

// The demo cube: sector units, every itemset, up to 2 SA and 1 CA items.
const cube::CubeView& View() {
  static const cube::CubeView* view = [] {
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
    return new cube::CubeView(std::move(result->cube).Seal(1));
  }();
  return *view;
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

// The cube SURPRISES and REVERSALS are timed on: perfbench's shape
// (ItalianConfig(0.02, seed 1), threshold-clustered units, closed
// itemsets, up to 3 SA and 2 CA items). The demo cube above caps contexts
// at one item and has no reversal candidates.
const cube::CubeView& FindingsView() {
  static const cube::CubeView* view = [] {
    auto s = datagen::GenerateScenario(datagen::ItalianConfig(0.02, 1));
    if (!s.ok()) {
      std::fprintf(stderr, "scenario: %s\n", s.status().ToString().c_str());
      std::abort();
    }
    pipeline::PipelineConfig config;
    config.unit_source = pipeline::UnitSource::kGroupClusters;
    config.method = pipeline::ClusterMethod::kThreshold;
    config.threshold.min_weight = 2.0;
    config.cube.mode = fpm::MineMode::kClosed;
    config.cube.max_sa_items = 3;
    config.cube.max_ca_items = 2;
    config.cube.min_support = 20;
    config.cube.num_threads = 0;
    auto result = pipeline::RunPipeline(s->inputs, config);
    if (!result.ok()) {
      std::fprintf(stderr, "pipeline: %s\n",
                   result.status().ToString().c_str());
      std::abort();
    }
    return new cube::CubeView(std::move(result->cube).Seal(0));
  }();
  return *view;
}

// SURPRISES BY dissimilarity MINDELTA 0.05 [LIMIT n]: the view's findings
// list walked until the page is full (what serves every query) vs every
// cell evaluated, sorted and cut to the page (the scan it replaced, and
// still the fallback; same filters, so both arms find the same rows).
// Args: {walk, limit}; limit 0 = every finding.
void BM_Surprises(benchmark::State& state) {
  const cube::CubeView& view = FindingsView();
  const indexes::IndexKind kind = indexes::IndexKind::kDissimilarity;
  cube::ExplorerOptions options;
  const bool walk = state.range(0) == 1;
  const size_t limit = static_cast<size_t>(state.range(1));
  size_t rows = 0;
  uint64_t inspected = 0;
  for (auto _ : state) {
    std::vector<cube::SurpriseFinding> out;
    if (walk) {
      cube::VisitSurprises(
          view, kind, 0.05, options, &inspected,
          [&out, limit](const cube::SurpriseFinding& f) {
            out.push_back(f);
            return out.size() != limit;
          },
          [] { return true; });
    } else {
      for (cube::CubeView::CellId id = 0; id < view.NumCells(); ++id) {
        if (!cube::PassesExplorerFilters(view.cell(id), options)) continue;
        auto f = cube::SurpriseOf(view, id, kind);
        if (f && !(f->delta < 0.05)) out.push_back(*f);
      }
      cube::SortSurprises(&out);
      if (limit != 0 && out.size() > limit) out.resize(limit);
      inspected = view.NumCells();
    }
    rows = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(walk ? "materialised walk" : "per-cell scan");
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["inspected"] = static_cast<double>(inspected);
}
BENCHMARK(BM_Surprises)
    ->Args({1, 50})->Args({0, 50})->Args({1, 0})->Args({0, 0})
    ->Unit(benchmark::kMicrosecond);

// REVERSALS BY dissimilarity MINGAP 0.01 [LIMIT n]: the findings list
// walked, each entry re-tested exactly, vs every cell evaluated and
// sorted (the fallback that serves WHERE floors other than the defaults
// and negative gaps). Args as above.
void BM_Reversals(benchmark::State& state) {
  const cube::CubeView& view = FindingsView();
  const indexes::IndexKind kind = indexes::IndexKind::kDissimilarity;
  cube::ExplorerOptions options;
  const bool walk = state.range(0) == 1;
  const size_t limit = static_cast<size_t>(state.range(1));
  size_t rows = 0;
  uint64_t inspected = 0;
  for (auto _ : state) {
    std::vector<cube::GranularityReversal> out;
    if (walk) {
      cube::VisitReversals(
          view, kind, 0.01, options, &inspected,
          [&out, limit](cube::GranularityReversal&& r) {
            out.push_back(std::move(r));
            return out.size() != limit;
          },
          [] { return true; });
    } else {
      for (cube::CubeView::CellId id = 0; id < view.NumCells(); ++id) {
        if (auto r = cube::EvaluateReversal(view, id, kind, 0.01, options)) {
          out.push_back(std::move(*r));
        }
      }
      cube::SortReversals(&out);
      if (limit != 0 && out.size() > limit) out.resize(limit);
      inspected = view.NumCells();
    }
    rows = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(walk ? "materialised walk" : "per-cell scan");
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["inspected"] = static_cast<double>(inspected);
}
BENCHMARK(BM_Reversals)
    ->Args({1, 50})->Args({0, 50})->Args({1, 0})->Args({0, 0})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
