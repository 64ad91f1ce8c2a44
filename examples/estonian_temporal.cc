// Estonian temporal analysis: a synthetic replica of the 20-year Estonian
// registry, analysed snapshot by snapshot. Shows how membership validity
// intervals + snapshot dates (paper §3, inputs) enable temporal segregation
// analysis: the planted feminisation drift makes gender segregation indexes
// move over the years.
//
// Run:  ./estonian_temporal [scale]   (default 0.01 ~ 3400 companies)

#include <cstdio>
#include <cstdlib>

#include "datagen/scenarios.h"
#include "scube/pipeline.h"

int main(int argc, char** argv) {
  using namespace scube;

  double scale = argc > 1 ? std::atof(argv[1]) : 0.01;
  std::printf("== Temporal segregation on synthetic Estonian registry "
              "(scale %.4f) ==\n", scale);

  auto scenario = datagen::GenerateScenario(datagen::EstonianConfig(scale));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("directors: %zu  companies: %zu  memberships: %zu  "
              "snapshots: %zu\n\n",
              scenario->inputs.individuals.NumRows(),
              scenario->inputs.groups.NumRows(),
              scenario->inputs.membership.NumMemberships(),
              scenario->snapshot_years.size());

  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  config.cube.min_support = 5;
  config.cube.mode = fpm::MineMode::kAll;
  config.cube.max_sa_items = 1;
  config.cube.max_ca_items = 0;  // the global context only

  std::printf("%-6s %-8s %-10s %-8s %-8s %-8s\n", "year", "seats",
              "femShare", "D", "Gini", "Isolation");
  for (graph::Date year : scenario->snapshot_years) {
    config.date = year;
    auto result = pipeline::RunPipeline(scenario->inputs, config);
    if (!result.ok()) {
      std::fprintf(stderr, "year %lld: %s\n",
                   static_cast<long long>(year),
                   result.status().ToString().c_str());
      continue;
    }
    fpm::ItemId female = result->cube.catalog().Find("gender", "F");
    const cube::CubeCell* cell =
        female == fpm::kInvalidItem
            ? nullptr
            : result->cube.Find(fpm::Itemset({female}), fpm::Itemset());
    if (cell == nullptr || !cell->indexes.defined) {
      std::printf("%-6lld (no defined female cell)\n",
                  static_cast<long long>(year));
      continue;
    }
    double share = static_cast<double>(cell->minority_size) /
                   static_cast<double>(cell->context_size);
    std::printf("%-6lld %-8llu %-10.3f %-8.3f %-8.3f %-8.3f\n",
                static_cast<long long>(year),
                static_cast<unsigned long long>(cell->context_size), share,
                cell->Value(indexes::IndexKind::kDissimilarity),
                cell->Value(indexes::IndexKind::kGini),
                cell->Value(indexes::IndexKind::kIsolation));
  }
  std::printf("\nExpected shape: female share rises across the years "
              "(planted drift of +%.2f).\n", 0.15);
  return 0;
}
