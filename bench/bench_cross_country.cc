// CROSS: the Italy-vs-Estonia cross-comparison of §4 — the same analysis
// (women directors across sector units) run on both synthetic registries,
// with the six indexes side by side and each country's top segregation
// contexts.

#include <cstdio>

#include "cube/explorer.h"
#include "datagen/scenarios.h"
#include "scube/pipeline.h"

using namespace scube;

namespace {

struct CountryRun {
  const char* label;
  indexes::IndexVector female_global;
  std::string top_contexts;
};

bool RunCountry(const datagen::ScenarioConfig& gen_config, graph::Date date,
                CountryRun* out) {
  auto scenario = datagen::GenerateScenario(gen_config);
  if (!scenario.ok()) return false;
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  config.date = date;
  config.cube.min_support = 20;
  config.cube.mode = fpm::MineMode::kAll;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  if (!result.ok()) return false;

  fpm::ItemId female = result->cube.catalog().Find("gender", "F");
  const cube::CubeCell* cell =
      female == fpm::kInvalidItem
          ? nullptr
          : result->cube.Find(fpm::Itemset({female}), fpm::Itemset());
  if (cell == nullptr || !cell->indexes.defined) return false;
  out->female_global = cell->indexes;

  cube::ExplorerOptions explore;
  explore.min_context_size = 100;
  explore.min_minority_size = 10;
  cube::CubeView view = std::move(result->cube).Seal();
  auto top = cube::TopSegregatedContexts(
      view, indexes::IndexKind::kDissimilarity, 3, explore);
  for (const auto& rc : top) {
    out->top_contexts += "    D=" +
                         std::to_string(rc.value).substr(0, 5) + "  " +
                         view.LabelOf(rc.cell->coords) + "\n";
  }
  return true;
}

}  // namespace

int main() {
  std::printf("CROSS: Italy vs Estonia, women directors across sector "
              "units\n\n");
  CountryRun italy{"IT (2012 snapshot)", {}, {}};
  CountryRun estonia{"EE (2010 snapshot)", {}, {}};
  if (!RunCountry(datagen::ItalianConfig(0.002), 0, &italy)) {
    std::fprintf(stderr, "IT run failed\n");
    return 1;
  }
  if (!RunCountry(datagen::EstonianConfig(0.02), 2010, &estonia)) {
    std::fprintf(stderr, "EE run failed\n");
    return 1;
  }

  std::printf("%-16s %12s %12s\n", "index", "Italy", "Estonia");
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    std::printf("%-16s %12.3f %12.3f\n", indexes::IndexKindToString(kind),
                italy.female_global[kind], estonia.female_global[kind]);
  }
  std::printf("\ntop contexts, Italy:\n%s", italy.top_contexts.c_str());
  std::printf("top contexts, Estonia:\n%s", estonia.top_contexts.c_str());
  std::printf("\nShape check (§4): both countries show sector-level gender "
              "segregation of comparable evenness (D, Gini); women's "
              "isolation is lower in the Italian registry (smaller female "
              "share, stronger under-representation), and Italy's top "
              "contexts concentrate in southern provinces (the planted "
              "north/south gradient).\n");
  return 0;
}
