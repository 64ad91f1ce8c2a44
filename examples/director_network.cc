// Director network (demo scenario 2): directors are nodes, an edge connects
// two directors sitting on a common board; organisational units come from
// clustering this attributed graph. Compares the paper's clustering methods
// (connected components, weight-threshold CC, SToC) plus Louvain on both
// cluster structure and discovered segregation.
//
// Run:  ./director_network [scale]   (default 0.001)
// Exits 1 if any method's pipeline fails.

#include <cstdio>
#include <cstdlib>

#include "cube/explorer.h"
#include "datagen/scenarios.h"
#include "graph/clustering.h"
#include "scube/pipeline.h"

int main(int argc, char** argv) {
  using namespace scube;

  double scale = argc > 1 ? std::atof(argv[1]) : 0.001;
  std::printf("== Director communities (scenario 2, scale %.4f) ==\n\n",
              scale);
  auto scenario = datagen::GenerateScenario(datagen::ItalianConfig(scale));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }

  struct MethodRun {
    pipeline::ClusterMethod method;
    const char* label;
  };
  const MethodRun methods[] = {
      {pipeline::ClusterMethod::kConnectedComponents, "BFS connected comp."},
      {pipeline::ClusterMethod::kThreshold, "threshold>=2 + CC"},
      {pipeline::ClusterMethod::kStoc, "SToC (tau=0.25)"},
      {pipeline::ClusterMethod::kLouvain, "Louvain"},
  };

  std::printf("%-22s %-9s %-9s %-10s %-10s\n", "method", "units", "giant",
              "femaleD", "femaleIso");
  bool failed = false;
  for (const MethodRun& m : methods) {
    pipeline::PipelineConfig config;
    config.unit_source = pipeline::UnitSource::kIndividualClusters;
    config.method = m.method;
    config.threshold.min_weight = 2.0;
    config.stoc.tau = 0.25;
    config.cube.min_support = 10;
    config.cube.mode = fpm::MineMode::kAll;
    config.cube.max_sa_items = 1;
    config.cube.max_ca_items = 1;

    auto result = pipeline::RunPipeline(scenario->inputs, config);
    if (!result.ok()) {
      std::printf("%-22s FAILED: %s\n", m.label,
                  result.status().ToString().c_str());
      failed = true;
      continue;
    }
    const cube::CubeView view = std::move(result->cube).Seal();
    fpm::ItemId female = view.catalog().Find("gender", "F");
    const cube::CubeCell* cell =
        female == fpm::kInvalidItem
            ? nullptr
            : view.Find(fpm::Itemset({female}), fpm::Itemset());
    if (cell != nullptr && cell->indexes.defined) {
      std::printf("%-22s %-9u %-9u %-10.3f %-10.3f\n", m.label,
                  result->clustering.num_clusters,
                  result->clustering.GiantSize(),
                  cell->Value(indexes::IndexKind::kDissimilarity),
                  cell->Value(indexes::IndexKind::kIsolation));
    } else {
      std::printf("%-22s %-9u %-9u (undefined)\n", m.label,
                  result->clustering.num_clusters,
                  result->clustering.GiantSize());
    }
  }

  std::printf("\nHow much are women segregated in communities of connected "
              "directors?\n");
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kIndividualClusters;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.min_support = 10;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  config.cube.mode = fpm::MineMode::kAll;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  if (!result.ok()) {
    std::printf("  FAILED: %s\n", result.status().ToString().c_str());
    return 1;
  }
  cube::ExplorerOptions explore;
  explore.min_context_size = 50;
  explore.min_minority_size = 10;
  cube::CubeView view = std::move(result->cube).Seal();
  auto top = cube::TopSegregatedContexts(
      view, indexes::IndexKind::kDissimilarity, 5, explore);
  for (const auto& rc : top) {
    std::printf("  D=%.3f  %s (T=%llu, M=%llu)\n", rc.value,
                view.LabelOf(rc.cell->coords).c_str(),
                static_cast<unsigned long long>(rc.cell->context_size),
                static_cast<unsigned long long>(rc.cell->minority_size));
  }
  return failed ? 1 : 0;
}
