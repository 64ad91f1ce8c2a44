// Graph: compact CSR storage for weighted undirected graphs.
//
// From-scratch replacement for the FastUtil-based graph storage of the Java
// original. Node ids are dense uint32; edges carry double weights (the
// projection weights edges by the number of shared directors).

#ifndef SCUBE_GRAPH_GRAPH_H_
#define SCUBE_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"

namespace scube {
namespace graph {

/// Dense node identifier.
using NodeId = uint32_t;

/// \brief An undirected weighted edge (u != v).
struct WeightedEdge {
  NodeId u = 0;
  NodeId v = 0;
  double weight = 1.0;
};

/// \brief Immutable undirected weighted graph in CSR form.
class Graph {
 public:
  /// \brief One adjacency entry.
  struct Neighbor {
    NodeId node;
    double weight;
  };

  Graph() = default;

  /// Builds from an edge list. Self-loops are rejected; parallel edges are
  /// merged by summing weights. Node ids must be < num_nodes.
  static Result<Graph> FromEdges(uint32_t num_nodes,
                                 const std::vector<WeightedEdge>& edges);

  uint32_t NumNodes() const { return num_nodes_; }

  /// Number of distinct undirected edges.
  uint64_t NumEdges() const { return adjacency_.size() / 2; }

  /// Sorted-by-node adjacency of `u`.
  std::span<const Neighbor> Neighbors(NodeId u) const {
    return std::span<const Neighbor>(adjacency_.data() + offsets_[u],
                                     offsets_[u + 1] - offsets_[u]);
  }

  uint32_t Degree(NodeId u) const {
    return static_cast<uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// Sum of all edge weights (each undirected edge counted once).
  double TotalWeight() const { return total_weight_; }

  /// Weight of edge (u,v), or 0 when absent. O(log degree).
  double EdgeWeight(NodeId u, NodeId v) const;

  /// True iff (u,v) is an edge.
  bool HasEdge(NodeId u, NodeId v) const { return EdgeWeight(u, v) > 0.0; }

  /// Copy with all edges of weight < min_weight removed.
  Graph FilterEdges(double min_weight) const;

 private:
  uint32_t num_nodes_ = 0;
  std::vector<uint64_t> offsets_{0};
  std::vector<Neighbor> adjacency_;
  double total_weight_ = 0.0;
};

/// \brief Per-node categorical attribute tokens for attributed clustering.
///
/// Each node carries a sorted set of opaque tokens (encode attribute=value
/// pairs); similarity between nodes is Jaccard over the token sets.
class NodeAttributes {
 public:
  NodeAttributes() = default;
  explicit NodeAttributes(uint32_t num_nodes) : tokens_(num_nodes) {}

  uint32_t NumNodes() const { return static_cast<uint32_t>(tokens_.size()); }

  /// Replaces the token set of `node` (sorted/deduplicated internally).
  void SetTokens(NodeId node, std::vector<uint32_t> tokens);

  const std::vector<uint32_t>& Tokens(NodeId node) const {
    return tokens_[node];
  }

  /// Jaccard similarity of the two token sets; 1.0 when both are empty.
  double Jaccard(NodeId a, NodeId b) const;

 private:
  std::vector<std::vector<uint32_t>> tokens_;
};

}  // namespace graph
}  // namespace scube

#endif  // SCUBE_GRAPH_GRAPH_H_
