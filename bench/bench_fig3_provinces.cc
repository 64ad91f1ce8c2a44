// FIG3-MAP: regenerates the per-province dissimilarity report of Figure 3
// (right) — the map overlay of the dissimilarity index of women directors
// for every Italian province. Units are company sectors; each province is a
// CA context. Also emits fig3_provinces.svg (tile map standing in for the
// GIS overlay).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "datagen/scenarios.h"
#include "scube/pipeline.h"
#include "viz/svg.h"

using namespace scube;

int main() {
  auto scenario = datagen::GenerateScenario(datagen::ItalianConfig(0.004));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }

  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  config.cube.min_support = 30;
  config.cube.mode = fpm::MineMode::kAll;
  config.cube.max_sa_items = 1;
  config.cube.max_ca_items = 1;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const cube::SegregationCube& cube = result->cube;
  const auto& catalog = cube.catalog();

  fpm::ItemId female = catalog.Find("gender", "F");
  if (female == fpm::kInvalidItem) {
    std::fprintf(stderr, "no female item\n");
    return 1;
  }

  struct ProvinceRow {
    std::string name;
    std::string region;
    double dissimilarity;
    double female_share;
    uint64_t population;
  };
  std::vector<ProvinceRow> report;
  for (const auto& p : datagen::ItalianProvinces()) {
    fpm::ItemId item = catalog.Find("residence_province", p.name);
    if (item == fpm::kInvalidItem) continue;
    const cube::CubeCell* cell =
        cube.Find(fpm::Itemset({female}), fpm::Itemset({item}));
    if (cell == nullptr || !cell->indexes.defined) continue;
    report.push_back(ProvinceRow{
        p.name, p.region,
        cell->Value(indexes::IndexKind::kDissimilarity),
        static_cast<double>(cell->minority_size) /
            static_cast<double>(cell->context_size),
        cell->context_size});
  }
  std::sort(report.begin(), report.end(),
            [](const ProvinceRow& a, const ProvinceRow& b) {
              return a.dissimilarity > b.dissimilarity;
            });

  std::printf("FIG3-MAP: dissimilarity of women directors per province "
              "(units = 20 sectors)\n\n");
  std::printf("%-16s %-7s %-9s %-10s %-9s\n", "province", "region", "D",
              "femShare", "T");
  double north_share = 0, south_share = 0;
  int north_n = 0, south_n = 0;
  for (const ProvinceRow& r : report) {
    std::printf("%-16s %-7s %-9.3f %-10.3f %-9llu\n", r.name.c_str(),
                r.region.c_str(), r.dissimilarity, r.female_share,
                static_cast<unsigned long long>(r.population));
    if (r.region == "north") {
      north_share += r.female_share;
      ++north_n;
    } else {
      south_share += r.female_share;
      ++south_n;
    }
  }
  if (north_n > 0 && south_n > 0) {
    std::printf("\nmean female share: north %.3f vs south %.3f "
                "(planted gradient: north > south)\n",
                north_share / north_n, south_share / south_n);
  }

  viz::TileMapSpec map;
  map.title = "Dissimilarity of women directors by province";
  for (const ProvinceRow& r : report) {
    map.tiles.emplace_back(r.name, r.dissimilarity);
  }
  auto svg = RenderTileMap(map);
  if (svg.ok()) {
    Status saved = WriteStringToFile("fig3_provinces.svg", svg.value());
    std::printf("fig3_provinces.svg: %s\n",
                saved.ok() ? "written" : "FAILED");
  }
  std::printf("Shape check (paper Fig. 3 right): provinces differ visibly "
              "in D; the south shows lower female presence.\n");
  return 0;
}
