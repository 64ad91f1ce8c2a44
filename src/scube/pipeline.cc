#include "scube/pipeline.h"

namespace scube {
namespace pipeline {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Table;

const char* UnitSourceToString(UnitSource source) {
  switch (source) {
    case UnitSource::kGroupAttribute:
      return "group-attribute";
    case UnitSource::kIndividualClusters:
      return "individual-clusters";
    case UnitSource::kGroupClusters:
      return "group-clusters";
  }
  return "?";
}

const char* ClusterMethodToString(ClusterMethod method) {
  switch (method) {
    case ClusterMethod::kConnectedComponents:
      return "connected-components";
    case ClusterMethod::kThreshold:
      return "threshold-cc";
    case ClusterMethod::kStoc:
      return "stoc";
    case ClusterMethod::kLouvain:
      return "louvain";
  }
  return "?";
}

graph::NodeAttributes BuildNodeAttributes(const Table& table) {
  graph::NodeAttributes attrs(static_cast<uint32_t>(table.NumRows()));
  const relational::Schema& schema = table.schema();
  for (size_t r = 0; r < table.NumRows(); ++r) {
    std::vector<uint32_t> tokens;
    for (size_t a = 0; a < schema.NumAttributes(); ++a) {
      const auto& spec = schema.attribute(a);
      if (spec.kind != AttributeKind::kSegregation &&
          spec.kind != AttributeKind::kContext) {
        continue;
      }
      if (spec.type == ColumnType::kCategorical) {
        tokens.push_back(static_cast<uint32_t>(a) << 20 |
                         table.CategoricalCode(r, a));
      } else if (spec.type == ColumnType::kCategoricalSet) {
        for (relational::Code code : table.SetCodes(r, a)) {
          tokens.push_back(static_cast<uint32_t>(a) << 20 | code);
        }
      }
    }
    attrs.SetTokens(static_cast<graph::NodeId>(r), std::move(tokens));
  }
  return attrs;
}

namespace {

Result<graph::Clustering> RunClustering(const graph::Graph& projected,
                                        const graph::NodeAttributes& attrs,
                                        const PipelineConfig& config) {
  switch (config.method) {
    case ClusterMethod::kConnectedComponents:
      return graph::ConnectedComponents(projected);
    case ClusterMethod::kThreshold:
      return graph::ThresholdClustering(projected, config.threshold);
    case ClusterMethod::kStoc:
      return graph::StocClustering(projected, attrs, config.stoc);
    case ClusterMethod::kLouvain:
      return graph::LouvainClustering(projected, config.louvain);
  }
  return Status::Internal("unreachable cluster method");
}

}  // namespace

Result<PipelineResult> RunPipeline(const etl::ScubeInputs& inputs,
                                   const PipelineConfig& config) {
  SCUBE_RETURN_IF_ERROR(inputs.Validate());
  PipelineResult result;
  WallTimer stage;

  // --- Units ---------------------------------------------------------------
  if (config.unit_source == UnitSource::kGroupAttribute) {
    // Tabular scenario: the unit is a group attribute.
    int col = inputs.groups.schema().IndexOf(config.group_unit_attribute);
    if (col < 0) {
      return Status::NotFound("group attribute '" +
                              config.group_unit_attribute + "' not found");
    }
    if (inputs.groups.schema().attribute(static_cast<size_t>(col)).type !=
        ColumnType::kCategorical) {
      return Status::FailedPrecondition("group unit attribute must be "
                                        "categorical");
    }
    std::vector<uint32_t> raw(inputs.groups.NumRows());
    for (size_t r = 0; r < inputs.groups.NumRows(); ++r) {
      raw[r] = inputs.groups.CategoricalCode(r, static_cast<size_t>(col));
    }
    result.clustering = graph::NormalizeLabels(std::move(raw));
    result.timings.Record("unit-assignment", stage.Seconds());
  } else {
    // GraphBuilder.
    graph::ProjectionOptions proj = config.projection;
    proj.date = config.date;
    proj.side = config.unit_source == UnitSource::kIndividualClusters
                    ? graph::ProjectionSide::kIndividuals
                    : graph::ProjectionSide::kGroups;
    auto projection = graph::ProjectBipartite(inputs.membership, proj);
    if (!projection.ok()) return projection.status();
    result.projected_edges = projection->graph.NumEdges();
    result.isolated_nodes = projection->isolated.size();
    result.hubs_skipped = projection->hubs_skipped;
    result.timings.Record("graph-builder", stage.Seconds());
    stage.Reset();

    // GraphClustering.
    graph::NodeAttributes attrs;
    if (config.method == ClusterMethod::kStoc) {
      attrs = BuildNodeAttributes(
          config.unit_source == UnitSource::kIndividualClusters
              ? inputs.individuals
              : inputs.groups);
    }
    auto clustering = RunClustering(projection->graph, attrs, config);
    if (!clustering.ok()) return clustering.status();
    result.clustering = std::move(clustering).value();
    result.timings.Record("graph-clustering", stage.Seconds());
  }
  stage.Reset();

  // --- TableBuilder ---------------------------------------------------------
  etl::TableBuilderOptions tb = config.table_builder;
  tb.date = config.date;
  auto table =
      config.unit_source == UnitSource::kIndividualClusters
          ? etl::BuildIndividualFinalTable(inputs, result.clustering)
          : etl::BuildFinalTable(inputs, result.clustering, tb);
  if (!table.ok()) return table.status();
  result.final_table = std::move(table).value();
  result.timings.Record("table-builder", stage.Seconds());
  stage.Reset();

  // --- SegregationDataCubeBuilder -------------------------------------------
  auto cube = cube::BuildSegregationCube(result.final_table, config.cube,
                                         &result.cube_stats);
  if (!cube.ok()) return cube.status();
  result.cube = std::move(cube).value();
  result.timings.Record("cube-builder", stage.Seconds());
  return result;
}

}  // namespace pipeline
}  // namespace scube
