#include "graph/clustering.h"

#include <algorithm>
#include <unordered_map>

namespace scube {
namespace graph {

std::vector<uint32_t> Clustering::ClusterSizes() const {
  std::vector<uint32_t> sizes(num_clusters, 0);
  for (uint32_t label : labels) ++sizes[label];
  return sizes;
}

uint32_t Clustering::GiantSize() const {
  uint32_t giant = 0;
  for (uint32_t size : ClusterSizes()) giant = std::max(giant, size);
  return giant;
}

Clustering NormalizeLabels(std::vector<uint32_t> raw_labels) {
  Clustering out;
  out.labels.resize(raw_labels.size());
  std::unordered_map<uint32_t, uint32_t> remap;
  for (size_t i = 0; i < raw_labels.size(); ++i) {
    auto [it, inserted] =
        remap.emplace(raw_labels[i], static_cast<uint32_t>(remap.size()));
    out.labels[i] = it->second;
  }
  out.num_clusters = static_cast<uint32_t>(remap.size());
  return out;
}

double Modularity(const Graph& graph, const Clustering& clustering) {
  double total = graph.TotalWeight();
  if (total <= 0.0) return 0.0;
  // Q = sum_c [ in_c/W2 - (deg_c/W2)^2 ], W2 = 2W, in_c = 2 * intra weight.
  std::vector<double> intra(clustering.num_clusters, 0.0);
  std::vector<double> degree(clustering.num_clusters, 0.0);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    uint32_t cu = clustering.labels[u];
    for (const Graph::Neighbor& n : graph.Neighbors(u)) {
      degree[cu] += n.weight;
      if (clustering.labels[n.node] == cu && u < n.node) {
        intra[cu] += n.weight;
      }
    }
  }
  double w2 = 2.0 * total;
  double q = 0.0;
  for (uint32_t c = 0; c < clustering.num_clusters; ++c) {
    q += 2.0 * intra[c] / w2 - (degree[c] / w2) * (degree[c] / w2);
  }
  return q;
}

}  // namespace graph
}  // namespace scube
