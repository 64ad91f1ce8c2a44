#include "graph/louvain.h"

#include <gtest/gtest.h>

#include "graph/clustering.h"

namespace scube {
namespace graph {
namespace {

Graph MustBuild(uint32_t n, const std::vector<WeightedEdge>& edges) {
  auto g = Graph::FromEdges(n, edges);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

Graph RingOfCliques(uint32_t num_cliques, uint32_t clique_size) {
  std::vector<WeightedEdge> edges;
  uint32_t n = num_cliques * clique_size;
  for (uint32_t c = 0; c < num_cliques; ++c) {
    uint32_t base = c * clique_size;
    for (uint32_t i = 0; i < clique_size; ++i) {
      for (uint32_t j = i + 1; j < clique_size; ++j) {
        edges.push_back({base + i, base + j, 1.0});
      }
    }
    // One bridge to the next clique.
    uint32_t next_base = ((c + 1) % num_cliques) * clique_size;
    edges.push_back({base + clique_size - 1, next_base, 1.0});
  }
  return MustBuild(n, edges);
}

TEST(LouvainTest, TwoCliquesWithBridge) {
  Graph g = MustBuild(8, {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}, {1, 2, 1},
                          {1, 3, 1}, {2, 3, 1},
                          {4, 5, 1}, {4, 6, 1}, {4, 7, 1}, {5, 6, 1},
                          {5, 7, 1}, {6, 7, 1},
                          {3, 4, 1}});
  auto c = LouvainClustering(g);
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->num_clusters, 2u);
  EXPECT_EQ(c->labels[0], c->labels[3]);
  EXPECT_EQ(c->labels[4], c->labels[7]);
  EXPECT_NE(c->labels[0], c->labels[4]);
  EXPECT_GT(Modularity(g, c.value()), 0.3);
}

TEST(LouvainTest, RingOfCliquesRecovered) {
  Graph g = RingOfCliques(6, 5);
  auto c = LouvainClustering(g);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->num_clusters, 6u);
  // Each clique must be monochromatic.
  for (uint32_t clique = 0; clique < 6; ++clique) {
    uint32_t label = c->labels[clique * 5];
    for (uint32_t i = 1; i < 5; ++i) {
      EXPECT_EQ(c->labels[clique * 5 + i], label) << "clique " << clique;
    }
  }
  EXPECT_GT(Modularity(g, c.value()), 0.6);
}

TEST(LouvainTest, DeterministicGivenSeed) {
  Graph g = RingOfCliques(4, 4);
  LouvainOptions opts;
  opts.rng_seed = 42;
  auto a = LouvainClustering(g, opts);
  auto b = LouvainClustering(g, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->labels, b->labels);
}

TEST(LouvainTest, EmptyGraphSingletons) {
  Graph g = MustBuild(4, {});
  auto c = LouvainClustering(g);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->num_clusters, 4u);
}

TEST(LouvainTest, WeightsMatter) {
  // Path 0 -10- 1 -1- 2 -10- 3: heavy pairs should cluster together.
  Graph g = MustBuild(4, {{0, 1, 10}, {1, 2, 1}, {2, 3, 10}});
  auto c = LouvainClustering(g);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->labels[0], c->labels[1]);
  EXPECT_EQ(c->labels[2], c->labels[3]);
  EXPECT_NE(c->labels[0], c->labels[2]);
}

TEST(LouvainTest, BeatsTrivialPartitionOnModularity) {
  Graph g = RingOfCliques(5, 6);
  auto c = LouvainClustering(g);
  ASSERT_TRUE(c.ok());
  Clustering trivial;
  trivial.labels.assign(g.NumNodes(), 0);
  trivial.num_clusters = 1;
  EXPECT_GT(Modularity(g, c.value()), Modularity(g, trivial));
}

}  // namespace
}  // namespace graph
}  // namespace scube
