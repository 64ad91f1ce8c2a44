// ScubePipeline: the end-to-end process of Fig. 2/3 — GraphBuilder ->
// GraphClustering -> TableBuilder -> SegregationDataCubeBuilder — behind one
// configuration struct. The three demo scenarios (§4) map to the three
// UnitSource values. Both finalTable shapes come from etl/table_builder:
// BuildIndividualFinalTable for scenario 2, BuildFinalTable's group join
// for the other two.

#ifndef SCUBE_SCUBE_PIPELINE_H_
#define SCUBE_SCUBE_PIPELINE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/timer.h"
#include "cube/builder.h"
#include "cube/cube.h"
#include "etl/inputs.h"
#include "etl/table_builder.h"
#include "graph/connected_components.h"
#include "graph/louvain.h"
#include "graph/projection.h"
#include "graph/stoc.h"
#include "graph/threshold_clustering.h"

namespace scube {
namespace pipeline {

/// How organisational units are obtained.
enum class UnitSource {
  /// Scenario 1 (tabular): one group attribute (e.g. company sector) is the
  /// unit; no projection or clustering runs.
  kGroupAttribute,

  /// Scenario 2: project the bipartite graph onto *individuals* (directors
  /// connected by shared boards) and cluster them; a community of directors
  /// is the unit.
  kIndividualClusters,

  /// Scenario 3 (the paper's main flow): project onto *groups* (companies
  /// connected by shared directors), cluster companies; units are company
  /// communities.
  kGroupClusters,
};

/// Which GraphClustering method runs (paper §3 lists the first three).
enum class ClusterMethod {
  kConnectedComponents,
  kThreshold,  ///< weak-edge removal in the giant component, then CC ([4])
  kStoc,       ///< attributed clustering ([3])
  kLouvain,    ///< extension baseline
};

const char* UnitSourceToString(UnitSource source);
const char* ClusterMethodToString(ClusterMethod method);

/// \brief Full pipeline configuration.
struct PipelineConfig {
  UnitSource unit_source = UnitSource::kGroupClusters;

  /// Group attribute used when unit_source == kGroupAttribute.
  std::string group_unit_attribute = "sector";

  /// Snapshot date (temporal inputs); applied to projection and join.
  graph::Date date = 0;

  graph::ProjectionOptions projection;  // side is set from unit_source
  ClusterMethod method = ClusterMethod::kThreshold;
  graph::ThresholdClusteringOptions threshold;
  graph::StocOptions stoc;
  graph::LouvainOptions louvain;

  etl::TableBuilderOptions table_builder;
  cube::CubeBuilderOptions cube;
};

/// \brief Everything the run produced, plus stage timings.
struct PipelineResult {
  cube::SegregationCube cube;
  relational::Table final_table{relational::Schema{}};
  graph::Clustering clustering;
  uint64_t projected_edges = 0;
  uint64_t isolated_nodes = 0;
  uint64_t hubs_skipped = 0;
  cube::CubeBuildStats cube_stats;
  StageTimings timings;
};

/// Runs the configured pipeline on the inputs.
Result<PipelineResult> RunPipeline(const etl::ScubeInputs& inputs,
                                   const PipelineConfig& config);

/// Builds SToC node attributes from a table's categorical SA/CA columns
/// (token = attribute-qualified value code).
graph::NodeAttributes BuildNodeAttributes(const relational::Table& table);

}  // namespace pipeline
}  // namespace scube

#endif  // SCUBE_SCUBE_PIPELINE_H_
