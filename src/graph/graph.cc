#include "graph/graph.h"

#include <algorithm>

namespace scube {
namespace graph {

Result<Graph> Graph::FromEdges(uint32_t num_nodes,
                               const std::vector<WeightedEdge>& edges) {
  for (const WeightedEdge& e : edges) {
    if (e.u == e.v) {
      return Status::InvalidArgument("self-loop at node " +
                                     std::to_string(e.u));
    }
    if (e.u >= num_nodes || e.v >= num_nodes) {
      return Status::OutOfRange("edge endpoint exceeds num_nodes");
    }
    if (e.weight <= 0.0) {
      return Status::InvalidArgument("edge weights must be positive");
    }
  }

  // Merge parallel edges: sort canonical (min,max) pairs.
  std::vector<WeightedEdge> canon;
  canon.reserve(edges.size());
  for (const WeightedEdge& e : edges) {
    canon.push_back(e.u < e.v ? e : WeightedEdge{e.v, e.u, e.weight});
  }
  std::sort(canon.begin(), canon.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  std::vector<WeightedEdge> merged;
  merged.reserve(canon.size());
  for (const WeightedEdge& e : canon) {
    if (!merged.empty() && merged.back().u == e.u && merged.back().v == e.v) {
      merged.back().weight += e.weight;
    } else {
      merged.push_back(e);
    }
  }

  Graph g;
  g.num_nodes_ = num_nodes;
  std::vector<uint32_t> degree(num_nodes, 0);
  for (const WeightedEdge& e : merged) {
    ++degree[e.u];
    ++degree[e.v];
    g.total_weight_ += e.weight;
  }
  g.offsets_.assign(num_nodes + 1, 0);
  for (uint32_t u = 0; u < num_nodes; ++u) {
    g.offsets_[u + 1] = g.offsets_[u] + degree[u];
  }
  g.adjacency_.resize(g.offsets_[num_nodes]);
  std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const WeightedEdge& e : merged) {
    g.adjacency_[cursor[e.u]++] = Neighbor{e.v, e.weight};
    g.adjacency_[cursor[e.v]++] = Neighbor{e.u, e.weight};
  }
  // merged is sorted by (u,v); insertion order guarantees per-node adjacency
  // sorted for the u side but not for the v side: sort each range.
  for (uint32_t u = 0; u < num_nodes; ++u) {
    std::sort(g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[u]),
              g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[u + 1]),
              [](const Neighbor& a, const Neighbor& b) {
                return a.node < b.node;
              });
  }
  return g;
}

double Graph::EdgeWeight(NodeId u, NodeId v) const {
  auto span = Neighbors(u);
  auto it = std::lower_bound(
      span.begin(), span.end(), v,
      [](const Neighbor& n, NodeId target) { return n.node < target; });
  if (it != span.end() && it->node == v) return it->weight;
  return 0.0;
}

Graph Graph::FilterEdges(double min_weight) const {
  std::vector<WeightedEdge> kept;
  for (uint32_t u = 0; u < num_nodes_; ++u) {
    for (const Neighbor& n : Neighbors(u)) {
      if (u < n.node && n.weight >= min_weight) {
        kept.push_back(WeightedEdge{u, n.node, n.weight});
      }
    }
  }
  auto g = FromEdges(num_nodes_, kept);
  return std::move(g).value();  // inputs come from a valid graph
}

void NodeAttributes::SetTokens(NodeId node, std::vector<uint32_t> tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  tokens_[node] = std::move(tokens);
}

double NodeAttributes::Jaccard(NodeId a, NodeId b) const {
  const auto& ta = tokens_[a];
  const auto& tb = tokens_[b];
  if (ta.empty() && tb.empty()) return 1.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < ta.size() && j < tb.size()) {
    if (ta[i] == tb[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (ta[i] < tb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = ta.size() + tb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace graph
}  // namespace scube
