#include "graph/clustering.h"

#include <gtest/gtest.h>

#include "graph/connected_components.h"
#include "graph/threshold_clustering.h"

namespace scube {
namespace graph {
namespace {

Graph MustBuild(uint32_t n, const std::vector<WeightedEdge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(NormalizeLabelsTest, DenseFirstSeenOrder) {
  Clustering c = NormalizeLabels({7, 7, 3, 7, 9, 3});
  EXPECT_EQ(c.num_clusters, 3u);
  EXPECT_EQ(c.labels, (std::vector<uint32_t>{0, 0, 1, 0, 2, 1}));
  EXPECT_EQ(c.ClusterSizes(), (std::vector<uint32_t>{3, 2, 1}));
  EXPECT_EQ(c.GiantSize(), 3u);
}

TEST(ConnectedComponentsTest, TwoComponentsAndIsolated) {
  // 0-1-2 path, 3-4 edge, 5 isolated.
  Graph g = MustBuild(6, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}});
  Clustering c = ConnectedComponents(g);
  EXPECT_EQ(c.num_clusters, 3u);
  EXPECT_EQ(c.labels[0], c.labels[1]);
  EXPECT_EQ(c.labels[1], c.labels[2]);
  EXPECT_EQ(c.labels[3], c.labels[4]);
  EXPECT_NE(c.labels[0], c.labels[3]);
  EXPECT_NE(c.labels[5], c.labels[0]);
  EXPECT_NE(c.labels[5], c.labels[3]);
}

TEST(ConnectedComponentsTest, FullyConnected) {
  Graph g = MustBuild(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 1}});
  Clustering c = ConnectedComponents(g);
  EXPECT_EQ(c.num_clusters, 1u);
}

TEST(ConnectedComponentsTest, EmptyGraphAllSingletons) {
  Graph g = MustBuild(5, {});
  Clustering c = ConnectedComponents(g);
  EXPECT_EQ(c.num_clusters, 5u);
}

TEST(ThresholdClusteringTest, GlobalThresholdSplits) {
  // Chain 0 -2- 1 -1- 2 -3- 3: cutting weight<2 splits at the middle edge.
  Graph g = MustBuild(4, {{0, 1, 2}, {1, 2, 1}, {2, 3, 3}});
  ThresholdClusteringOptions opts;
  opts.min_weight = 2.0;
  opts.giant_only = false;
  auto c = ThresholdClustering(g, opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->num_clusters, 2u);
  EXPECT_EQ(c->labels[0], c->labels[1]);
  EXPECT_EQ(c->labels[2], c->labels[3]);
  EXPECT_NE(c->labels[0], c->labels[2]);
}

TEST(ThresholdClusteringTest, GiantOnlyPreservesSmallComponents) {
  // Giant: 0-1-2-3-4 weak chain. Small: 5-6 weak edge.
  Graph g = MustBuild(
      7, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {5, 6, 1}});
  ThresholdClusteringOptions opts;
  opts.min_weight = 2.0;
  opts.giant_only = true;
  auto c = ThresholdClustering(g, opts);
  ASSERT_TRUE(c.ok());
  // Giant shattered into 5 singletons; 5-6 kept together.
  EXPECT_EQ(c->num_clusters, 6u);
  EXPECT_EQ(c->labels[5], c->labels[6]);

  opts.giant_only = false;
  auto c2 = ThresholdClustering(g, opts);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2->num_clusters, 7u);  // everything shattered
}

TEST(ThresholdClusteringTest, RejectsNegativeThreshold) {
  Graph g = MustBuild(2, {{0, 1, 1}});
  ThresholdClusteringOptions opts;
  opts.min_weight = -1.0;
  EXPECT_FALSE(ThresholdClustering(g, opts).ok());
}

TEST(ModularityTest, TwoTrianglesPartition) {
  Graph g = MustBuild(6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
                          {3, 4, 1}, {4, 5, 1}, {3, 5, 1}});
  Clustering c = NormalizeLabels({0, 0, 0, 1, 1, 1});
  EXPECT_NEAR(Modularity(g, c), 0.5, 1e-12);

  // All nodes in one cluster: Q = 0.
  Clustering one = NormalizeLabels({0, 0, 0, 0, 0, 0});
  EXPECT_NEAR(Modularity(g, one), 0.0, 1e-12);
}

TEST(ModularityTest, BadPartitionScoresLower) {
  Graph g = MustBuild(6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
                          {3, 4, 1}, {4, 5, 1}, {3, 5, 1}});
  Clustering good = NormalizeLabels({0, 0, 0, 1, 1, 1});
  Clustering bad = NormalizeLabels({0, 1, 0, 1, 0, 1});
  EXPECT_GT(Modularity(g, good), Modularity(g, bad));
}

}  // namespace
}  // namespace graph
}  // namespace scube
