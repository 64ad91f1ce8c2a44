// Temporal segregation analysis: runs the pipeline at each snapshot date
// (paper §3: the `dates` input) and assembles per-cell index time series.

#ifndef SCUBE_SCUBE_TEMPORAL_H_
#define SCUBE_SCUBE_TEMPORAL_H_

#include <map>
#include <string>
#include <vector>

#include "scube/pipeline.h"

namespace scube {
namespace pipeline {

/// \brief One snapshot's reading of one tracked cell.
struct TemporalPoint {
  graph::Date date = 0;
  bool defined = false;
  uint64_t context_size = 0;   ///< T at this date
  uint64_t minority_size = 0;  ///< M at this date
  indexes::IndexVector indexes;

  double MinorityShare() const {
    return context_size == 0
               ? 0.0
               : static_cast<double>(minority_size) /
                     static_cast<double>(context_size);
  }
};

/// \brief A tracked coordinate described by attribute/value pairs (labels
/// survive across snapshots even though item ids differ per run).
struct TrackedCell {
  /// SA coordinates as (attribute name, value), e.g. {{"gender","F"}}.
  std::vector<std::pair<std::string, std::string>> sa;
  /// CA coordinates, may be empty (the ⋆ context).
  std::vector<std::pair<std::string, std::string>> ca;
};

/// \brief Result of a temporal run: per tracked cell, one point per date.
struct TemporalResult {
  std::vector<graph::Date> dates;
  /// series[i][j] = tracked cell i at dates[j].
  std::vector<std::vector<TemporalPoint>> series;
};

/// Runs the pipeline once per date and extracts the tracked cells. Dates
/// must be non-empty; tracked cells whose items are absent at a date yield
/// an undefined point (defined = false).
Result<TemporalResult> RunTemporalAnalysis(
    const etl::ScubeInputs& inputs, const PipelineConfig& config,
    const std::vector<graph::Date>& dates,
    const std::vector<TrackedCell>& tracked);

}  // namespace pipeline
}  // namespace scube

#endif  // SCUBE_SCUBE_TEMPORAL_H_
