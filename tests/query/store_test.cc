#include "query/cube_store.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace scube {
namespace query {
namespace {

cube::SegregationCube CubeWithCells(size_t n) {
  cube::SegregationCube cube;
  for (size_t i = 0; i < n; ++i) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{
        fpm::Itemset({static_cast<fpm::ItemId>(i)}), fpm::Itemset()};
    cell.context_size = 10;
    cell.minority_size = 2;
    cube.Insert(std::move(cell));
  }
  return cube;
}

TEST(CubeStoreTest, PublishGetVersion) {
  CubeStore store;
  EXPECT_EQ(store.Get("italy"), nullptr);
  EXPECT_EQ(store.Version("italy"), 0u);

  EXPECT_EQ(store.Publish("italy", CubeWithCells(3)), 1u);
  EXPECT_EQ(store.Publish("estonia", CubeWithCells(5)), 1u);
  EXPECT_EQ(store.Publish("italy", CubeWithCells(4)), 2u);

  uint64_t version = 0;
  auto italy = store.Get("italy", &version);
  ASSERT_NE(italy, nullptr);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(italy->NumCells(), 4u);
  EXPECT_EQ(store.Names(), (std::vector<std::string>{"estonia", "italy"}));
}

TEST(CubeStoreTest, ParallelSealPublishMatchesSequential) {
  CubeStore store;
  store.Publish("seq", CubeWithCells(64), /*num_threads=*/1);
  store.Publish("par", CubeWithCells(64), /*num_threads=*/4);
  auto seq = store.Get("seq");
  auto par = store.Get("par");
  ASSERT_NE(seq, nullptr);
  ASSERT_NE(par, nullptr);
  ASSERT_EQ(seq->NumCells(), par->NumCells());
  for (size_t i = 0; i < seq->NumCells(); ++i) {
    auto id = static_cast<cube::CubeView::CellId>(i);
    EXPECT_EQ(seq->cell(id).coords, par->cell(id).coords);
    fpm::ItemId item = static_cast<fpm::ItemId>(i);
    auto sp = seq->SaPostings(item);
    auto pp = par->SaPostings(item);
    EXPECT_TRUE(std::equal(sp.begin(), sp.end(), pp.begin(), pp.end()));
  }
}

TEST(CubeStoreTest, GetVersionServesRetainedVersionsOnly) {
  CubeStore store(/*max_versions=*/2);
  store.Publish("c", CubeWithCells(3));  // v1
  store.Publish("c", CubeWithCells(4));  // v2
  store.Publish("c", CubeWithCells(5));  // v3 -> v1 evicted

  EXPECT_EQ(store.RetainedVersions("c"), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(store.GetVersion("c", 1), nullptr);  // evicted
  ASSERT_NE(store.GetVersion("c", 2), nullptr);
  EXPECT_EQ(store.GetVersion("c", 2)->NumCells(), 4u);
  ASSERT_NE(store.GetVersion("c", 3), nullptr);
  EXPECT_EQ(store.GetVersion("c", 3)->NumCells(), 5u);
  EXPECT_EQ(store.GetVersion("c", 4), nullptr);   // never published
  EXPECT_EQ(store.GetVersion("d", 1), nullptr);   // unknown cube
  EXPECT_TRUE(store.RetainedVersions("d").empty());

  // The latest snapshot is unaffected by eviction of older versions.
  uint64_t version = 0;
  ASSERT_NE(store.Get("c", &version), nullptr);
  EXPECT_EQ(version, 3u);
}

TEST(CubeStoreTest, EvictedSnapshotsStayAliveForHolders) {
  CubeStore store(/*max_versions=*/1);
  store.Publish("c", CubeWithCells(3));
  CubeStore::Snapshot held = store.GetVersion("c", 1);
  ASSERT_NE(held, nullptr);
  store.Publish("c", CubeWithCells(9));  // evicts v1 from the store
  EXPECT_EQ(store.GetVersion("c", 1), nullptr);
  EXPECT_EQ(held->NumCells(), 3u);  // reader's snapshot is untouched
}

TEST(CubeStoreTest, SnapshotsSurvivePublishes) {
  CubeStore store;
  store.Publish("c", CubeWithCells(3));
  CubeStore::Snapshot old_snapshot = store.Get("c");
  ASSERT_NE(old_snapshot, nullptr);

  // A new publish must not disturb readers holding the old snapshot.
  store.Publish("c", CubeWithCells(8));
  EXPECT_EQ(old_snapshot->NumCells(), 3u);
  EXPECT_EQ(store.Get("c")->NumCells(), 8u);
  EXPECT_EQ(store.Version("c"), 2u);
}

QueryResult ResultWithRows(size_t n) {
  QueryResult result;
  result.rows.resize(n);
  return result;
}

TEST(ResultCacheTest, HitMissAndVersionKeying) {
  ResultCache cache(4);
  EXPECT_FALSE(cache.Get("c", 1, "TOPK 5 BY gini").has_value());
  cache.Put("c", 1, "TOPK 5 BY gini", ResultWithRows(2));

  auto hit = cache.Get("c", 1, "TOPK 5 BY gini");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rows.size(), 2u);

  // A new cube version or another cube never serves the stale entry.
  EXPECT_FALSE(cache.Get("c", 2, "TOPK 5 BY gini").has_value());
  EXPECT_FALSE(cache.Get("d", 1, "TOPK 5 BY gini").has_value());

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(ResultCacheTest, LruEviction) {
  ResultCache cache(2);
  cache.Put("c", 1, "a", ResultWithRows(1));
  cache.Put("c", 1, "b", ResultWithRows(2));

  // Touch "a" so "b" becomes the least recently used entry.
  EXPECT_TRUE(cache.Get("c", 1, "a").has_value());
  cache.Put("c", 1, "x", ResultWithRows(3));

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Get("c", 1, "a").has_value());
  EXPECT_FALSE(cache.Get("c", 1, "b").has_value());  // evicted
  EXPECT_TRUE(cache.Get("c", 1, "x").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, PutRefreshesExistingEntry) {
  ResultCache cache(2);
  cache.Put("c", 1, "a", ResultWithRows(1));
  cache.Put("c", 1, "b", ResultWithRows(2));
  // Re-putting "a" refreshes both payload and recency; inserting a third
  // entry then evicts "b".
  cache.Put("c", 1, "a", ResultWithRows(9));
  cache.Put("c", 1, "x", ResultWithRows(3));

  auto a = cache.Get("c", 1, "a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->rows.size(), 9u);
  EXPECT_FALSE(cache.Get("c", 1, "b").has_value());
}

TEST(ResultCacheTest, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.Put("c", 1, "a", ResultWithRows(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("c", 1, "a").has_value());
}

TEST(ResultCacheTest, ClearEmptiesEntries) {
  ResultCache cache(4);
  cache.Put("c", 1, "a", ResultWithRows(1));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("c", 1, "a").has_value());
}

}  // namespace
}  // namespace query
}  // namespace scube
