#include "scube/temporal.h"

#include "cube/cube_view.h"

namespace scube {
namespace pipeline {

namespace {

// Resolves a tracked coordinate against a run's catalog; false when any
// (attribute, value) pair has no item in this snapshot.
bool ResolveItems(
    const relational::ItemCatalog& catalog,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    fpm::Itemset* out) {
  std::vector<fpm::ItemId> items;
  for (const auto& [attr, value] : pairs) {
    fpm::ItemId item = catalog.Find(attr, value);
    if (item == fpm::kInvalidItem) return false;
    items.push_back(item);
  }
  *out = fpm::Itemset(std::move(items));
  return true;
}

}  // namespace

Result<TemporalResult> RunTemporalAnalysis(
    const etl::ScubeInputs& inputs, const PipelineConfig& config,
    const std::vector<graph::Date>& dates,
    const std::vector<TrackedCell>& tracked) {
  if (dates.empty()) {
    return Status::InvalidArgument("temporal analysis needs at least one "
                                   "snapshot date");
  }
  if (tracked.empty()) {
    return Status::InvalidArgument("no tracked cells given");
  }

  TemporalResult out;
  out.dates = dates;
  out.series.assign(tracked.size(), {});

  for (graph::Date date : dates) {
    PipelineConfig snapshot_config = config;
    snapshot_config.date = date;
    auto result = RunPipeline(inputs, snapshot_config);
    if (!result.ok()) {
      return result.status().WithContext("snapshot " + std::to_string(date));
    }
    // A handful of point lookups per date: seal on the calling thread.
    const cube::CubeView view = std::move(result->cube).Seal(1);

    for (size_t i = 0; i < tracked.size(); ++i) {
      TemporalPoint point;
      point.date = date;
      fpm::Itemset sa, ca;
      if (ResolveItems(view.catalog(), tracked[i].sa, &sa) &&
          ResolveItems(view.catalog(), tracked[i].ca, &ca)) {
        const cube::CubeCell* cell = view.Find(sa, ca);
        if (cell != nullptr) {
          point.defined = cell->indexes.defined;
          point.context_size = cell->context_size;
          point.minority_size = cell->minority_size;
          point.indexes = cell->indexes;
        }
      }
      out.series[i].push_back(point);
    }
  }
  return out;
}

}  // namespace pipeline
}  // namespace scube
