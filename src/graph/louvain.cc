#include "graph/louvain.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/random.h"

namespace scube {
namespace graph {

namespace {

/// Aggregation levels per run, and local-move sweeps per level.
constexpr uint32_t kMaxLevels = 10;
constexpr uint32_t kMaxSweeps = 20;

// Internal multigraph with self-loops (the public Graph rejects them, but
// Louvain aggregation folds intra-community weight into loops, which must
// count toward node degrees for the modularity arithmetic to be right).
struct LGraph {
  // adj[u] = (v, w) with u != v; both directions stored.
  std::vector<std::vector<std::pair<uint32_t, double>>> adj;
  // loop[u] = self-loop weight (counts twice in the degree, as usual).
  std::vector<double> loop;
  // degree[u] = sum of incident weights + 2 * loop[u].
  std::vector<double> degree;
  double total_weight = 0.0;  // W: each edge once + loops once

  uint32_t NumNodes() const { return static_cast<uint32_t>(adj.size()); }
};

LGraph FromGraph(const Graph& graph) {
  LGraph lg;
  lg.adj.resize(graph.NumNodes());
  lg.loop.assign(graph.NumNodes(), 0.0);
  lg.degree.assign(graph.NumNodes(), 0.0);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (const Graph::Neighbor& n : graph.Neighbors(u)) {
      lg.adj[u].emplace_back(n.node, n.weight);
      lg.degree[u] += n.weight;
    }
  }
  lg.total_weight = graph.TotalWeight();
  return lg;
}

struct LevelResult {
  std::vector<uint32_t> labels;
  bool moved = false;
};

LevelResult LocalMoving(const LGraph& g, Rng* rng) {
  const uint32_t n = g.NumNodes();
  const double w2 = 2.0 * g.total_weight;
  LevelResult result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), 0);
  if (w2 <= 0.0) return result;

  // Sum of degrees per community.
  std::vector<double> community_degree = g.degree;

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);

  std::unordered_map<uint32_t, double> weight_to_comm;
  for (uint32_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool sweep_moved = false;
    for (uint32_t u : order) {
      uint32_t current = result.labels[u];
      weight_to_comm.clear();
      for (const auto& [v, w] : g.adj[u]) {
        weight_to_comm[result.labels[v]] += w;
      }
      community_degree[current] -= g.degree[u];
      double w_current = 0.0;
      if (auto it = weight_to_comm.find(current); it != weight_to_comm.end()) {
        w_current = it->second;
      }
      // dQ(u -> c) = (w_to_c - k_u * deg_c / w2) * 2/w2; compare numerators.
      uint32_t best = current;
      double best_gain =
          w_current - g.degree[u] * community_degree[current] / w2;
      for (const auto& [comm, w] : weight_to_comm) {
        if (comm == current) continue;
        double gain = w - g.degree[u] * community_degree[comm] / w2;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best = comm;
        }
      }
      community_degree[best] += g.degree[u];
      if (best != current) {
        result.labels[u] = best;
        result.moved = true;
        sweep_moved = true;
      }
    }
    if (!sweep_moved) break;
  }
  return result;
}

LGraph Aggregate(const LGraph& g, const Clustering& clustering) {
  LGraph out;
  out.adj.resize(clustering.num_clusters);
  out.loop.assign(clustering.num_clusters, 0.0);
  out.degree.assign(clustering.num_clusters, 0.0);
  out.total_weight = g.total_weight;

  std::unordered_map<uint64_t, double> inter;
  for (uint32_t u = 0; u < g.NumNodes(); ++u) {
    uint32_t cu = clustering.labels[u];
    out.loop[cu] += g.loop[u];
    for (const auto& [v, w] : g.adj[u]) {
      if (u > v) continue;  // each undirected edge once
      uint32_t cv = clustering.labels[v];
      if (cu == cv) {
        out.loop[cu] += w;
      } else {
        uint64_t key = cu < cv ? (static_cast<uint64_t>(cu) << 32) | cv
                               : (static_cast<uint64_t>(cv) << 32) | cu;
        inter[key] += w;
      }
    }
  }
  for (const auto& [key, w] : inter) {
    uint32_t a = static_cast<uint32_t>(key >> 32);
    uint32_t b = static_cast<uint32_t>(key & 0xFFFFFFFFu);
    out.adj[a].emplace_back(b, w);
    out.adj[b].emplace_back(a, w);
    out.degree[a] += w;
    out.degree[b] += w;
  }
  for (uint32_t c = 0; c < clustering.num_clusters; ++c) {
    out.degree[c] += 2.0 * out.loop[c];
  }
  return out;
}

}  // namespace

Result<Clustering> LouvainClustering(const Graph& graph,
                                     const LouvainOptions& options) {
  Rng rng(options.rng_seed);

  // flat[u] = community of u in the original graph.
  std::vector<uint32_t> flat(graph.NumNodes());
  std::iota(flat.begin(), flat.end(), 0);

  LGraph current = FromGraph(graph);
  for (uint32_t level = 0; level < kMaxLevels; ++level) {
    LevelResult moved = LocalMoving(current, &rng);
    if (!moved.moved) break;
    Clustering normalized = NormalizeLabels(std::move(moved.labels));
    for (uint32_t& c : flat) c = normalized.labels[c];
    if (normalized.num_clusters == current.NumNodes()) break;
    current = Aggregate(current, normalized);
  }
  return NormalizeLabels(std::move(flat));
}

}  // namespace graph
}  // namespace scube
