#include "graph/graph.h"

#include <gtest/gtest.h>

namespace scube {
namespace graph {
namespace {

Graph MustBuild(uint32_t n, const std::vector<WeightedEdge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(GraphTest, EmptyGraph) {
  Graph g = MustBuild(3, {});
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Degree(0), 0u);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 0.0);
}

TEST(GraphTest, BasicAdjacency) {
  Graph g = MustBuild(4, {{0, 1, 2.0}, {1, 2, 1.0}, {0, 3, 5.0}});
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 8.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(2, 3), 0.0);
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(1, 3));
}

TEST(GraphTest, NeighborsAreSortedByNode) {
  Graph g = MustBuild(5, {{2, 4, 1.0}, {2, 0, 1.0}, {2, 3, 1.0}, {2, 1, 1.0}});
  auto nbrs = g.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1].node, nbrs[i].node);
  }
}

TEST(GraphTest, ParallelEdgesMergeWeights) {
  Graph g = MustBuild(2, {{0, 1, 1.0}, {1, 0, 2.5}, {0, 1, 0.5}});
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 4.0);
}

TEST(GraphTest, SelfLoopRejected) {
  auto g = Graph::FromEdges(2, {{1, 1, 1.0}});
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, OutOfRangeEndpointRejected) {
  auto g = Graph::FromEdges(2, {{0, 2, 1.0}});
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
}

TEST(GraphTest, NonPositiveWeightRejected) {
  EXPECT_FALSE(Graph::FromEdges(2, {{0, 1, 0.0}}).ok());
  EXPECT_FALSE(Graph::FromEdges(2, {{0, 1, -1.0}}).ok());
}

TEST(GraphTest, FilterEdgesKeepsHeavyOnes) {
  Graph g = MustBuild(4, {{0, 1, 1.0}, {1, 2, 3.0}, {2, 3, 2.0}});
  Graph f = g.FilterEdges(2.0);
  EXPECT_EQ(f.NumEdges(), 2u);
  EXPECT_FALSE(f.HasEdge(0, 1));
  EXPECT_TRUE(f.HasEdge(1, 2));
  EXPECT_TRUE(f.HasEdge(2, 3));
  EXPECT_EQ(f.NumNodes(), 4u);
}

TEST(NodeAttributesTest, JaccardSimilarity) {
  NodeAttributes attrs(3);
  attrs.SetTokens(0, {1, 2, 3});
  attrs.SetTokens(1, {2, 3, 4});
  attrs.SetTokens(2, {});
  EXPECT_DOUBLE_EQ(attrs.Jaccard(0, 1), 0.5);  // |{2,3}| / |{1,2,3,4}|
  EXPECT_DOUBLE_EQ(attrs.Jaccard(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(attrs.Jaccard(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(attrs.Jaccard(2, 2), 1.0);  // both empty: identical
}

TEST(NodeAttributesTest, TokensDeduplicated) {
  NodeAttributes attrs(1);
  attrs.SetTokens(0, {5, 5, 1, 1});
  EXPECT_EQ(attrs.Tokens(0), (std::vector<uint32_t>{1, 5}));
}

}  // namespace
}  // namespace graph
}  // namespace scube
