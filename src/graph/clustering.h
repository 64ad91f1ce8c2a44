// Clustering: shared result type and the modularity quality metric for the
// GraphClustering module (paper §3).

#ifndef SCUBE_GRAPH_CLUSTERING_H_
#define SCUBE_GRAPH_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace scube {
namespace graph {

/// \brief A partition of the nodes into dense-labelled clusters.
struct Clustering {
  /// labels[node] = cluster id in [0, num_clusters).
  std::vector<uint32_t> labels;
  uint32_t num_clusters = 0;

  size_t NumNodes() const { return labels.size(); }

  /// Per-cluster node counts.
  std::vector<uint32_t> ClusterSizes() const;

  /// Size of the largest cluster.
  uint32_t GiantSize() const;
};

/// Renumbers arbitrary labels into dense 0..k-1 (first-seen order).
Clustering NormalizeLabels(std::vector<uint32_t> raw_labels);

/// Newman-Girvan weighted modularity of the partition.
double Modularity(const Graph& graph, const Clustering& clustering);

}  // namespace graph
}  // namespace scube

#endif  // SCUBE_GRAPH_CLUSTERING_H_
