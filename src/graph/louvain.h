// Louvain modularity clustering (Blondel et al. 2008) — an extension beyond
// the paper's three methods, used as a quality baseline in the clustering
// benchmark.

#ifndef SCUBE_GRAPH_LOUVAIN_H_
#define SCUBE_GRAPH_LOUVAIN_H_

#include "common/result.h"
#include "graph/clustering.h"
#include "graph/graph.h"

namespace scube {
namespace graph {

/// \brief Louvain parameters. A run aggregates at most 10 levels and
/// sweeps each level at most 20 times.
struct LouvainOptions {
  /// Node-visit order seed (deterministic given this).
  uint64_t rng_seed = 0x10074172ULL;
};

/// Runs Louvain; returns the final flat partition of the input graph.
Result<Clustering> LouvainClustering(const Graph& graph,
                                     const LouvainOptions& options = {});

}  // namespace graph
}  // namespace scube

#endif  // SCUBE_GRAPH_LOUVAIN_H_
