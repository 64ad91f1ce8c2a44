// Partitioner properties that make scatter-gather byte-identity possible:
// the owned cells of all shards are a disjoint partition of the global
// cube, ghosts replicate exactly the cross-shard CA-axis adjacency, and
// every shard cell carries the global cell's payload verbatim.

#include "cluster/partition.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cube/cube.h"
#include "cube/cube_view.h"

namespace scube {
namespace cluster {
namespace {

using cube::CellCoordinates;
using cube::CubeCell;
using cube::SegregationCube;

cube::CubeCell MakeCell(std::vector<fpm::ItemId> sa,
                        std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m) {
  cube::CubeCell cell;
  cell.coords = CellCoordinates{fpm::Itemset(std::move(sa)),
                                fpm::Itemset(std::move(ca))};
  cell.context_size = t;
  cell.minority_size = m;
  cell.num_units = 3;
  cell.indexes.defined = (m != 0 && m != t);
  for (size_t i = 0; i < indexes::kNumIndexKinds; ++i) {
    cell.indexes.values[i] = 0.01 * static_cast<double>(t % 97) +
                             0.001 * static_cast<double>(i);
  }
  return cell;
}

/// A cube with enough distinct context coordinates (6 single-item CAs
/// plus the empty CA) that hash partitioning to 4 shards is non-trivial:
/// SA items 0..2, CA items 3..8, every (sa subset, ca in {∅, {c}}) pair.
SegregationCube MakeGlobalCube() {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);
  catalog.GetOrAdd(1, "age", "young", AttributeKind::kSegregation);
  catalog.GetOrAdd(2, "origin", "foreign", AttributeKind::kSegregation);
  for (fpm::ItemId c = 3; c <= 8; ++c) {
    catalog.GetOrAdd(c, "province", "p" + std::to_string(c),
                     AttributeKind::kContext);
  }

  SegregationCube cube(std::move(catalog), {"u0", "u1", "u2"});
  const std::vector<std::vector<fpm::ItemId>> sas = {
      {}, {0}, {1}, {2}, {0, 1}, {0, 2}};
  uint64_t t = 400;
  for (const auto& sa : sas) {
    cube.Insert(MakeCell(sa, {}, t, t / 3));
    for (fpm::ItemId c = 3; c <= 8; ++c) {
      cube.Insert(MakeCell(sa, {c}, t / 2 + c, (t / 2 + c) / 4));
      ++t;
    }
  }
  return cube;
}

std::string CoordKey(const CellCoordinates& coords) {
  std::string key;
  for (fpm::ItemId item : coords.sa.items()) {
    key += std::to_string(item) + ",";
  }
  key += "|";
  for (fpm::ItemId item : coords.ca.items()) {
    key += std::to_string(item) + ",";
  }
  return key;
}

bool SamePayload(const CubeCell& a, const CubeCell& b) {
  if (a.context_size != b.context_size) return false;
  if (a.minority_size != b.minority_size) return false;
  if (a.num_units != b.num_units) return false;
  if (a.indexes.defined != b.indexes.defined) return false;
  for (size_t i = 0; i < indexes::kNumIndexKinds; ++i) {
    if (a.indexes.values[i] != b.indexes.values[i]) return false;
  }
  return true;
}

TEST(PartitionTest, ContextFingerprintIsDeterministicAndDiscriminates) {
  fpm::Itemset a({3});
  fpm::Itemset b({4});
  fpm::Itemset empty;
  EXPECT_EQ(ContextFingerprint(a), ContextFingerprint(fpm::Itemset({3})));
  EXPECT_NE(ContextFingerprint(a), ContextFingerprint(b));
  EXPECT_NE(ContextFingerprint(a), ContextFingerprint(empty));
}

// A cell's shard is its fingerprint modulo the shard count, so shard
// processes built apart must agree on these bits. The empty context's
// value is the hash's start value (common/hashing.h, kFnvTruncatedBasis).
TEST(PartitionTest, ContextFingerprintValuesArePinned) {
  EXPECT_EQ(ContextFingerprint(fpm::Itemset()), 0x14650fb0739d0383ull);
  EXPECT_EQ(ContextFingerprint(fpm::Itemset({3})), 0x516442878400fb80ull);
  EXPECT_EQ(ContextFingerprint(fpm::Itemset({4})), 0xb13ef6c1df792377ull);
  EXPECT_EQ(ContextFingerprint(fpm::Itemset({1, 7, 300})),
            0xa2c06e507cf51cbeull);
}

TEST(PartitionTest, ShardOfContextStaysInRange) {
  for (size_t n : {1u, 2u, 3u, 4u, 7u}) {
    PartitionOptions options;
    options.num_shards = n;
    for (fpm::ItemId c = 0; c < 32; ++c) {
      EXPECT_LT(ShardOfContext(fpm::Itemset({c}), options), n);
    }
    EXPECT_LT(ShardOfContext(fpm::Itemset(), options), n);
  }
}

TEST(PartitionTest, OwnedCellsAreADisjointPartitionOfTheGlobalCube) {
  cube::CubeView view = MakeGlobalCube().Seal(1);
  for (size_t n : {1u, 2u, 4u}) {
    PartitionOptions options;
    options.num_shards = n;
    PartitionStats stats;
    std::vector<SegregationCube> shards =
        PartitionCube(view, options, &stats);
    ASSERT_EQ(shards.size(), n);
    ASSERT_EQ(stats.owned.size(), n);
    ASSERT_EQ(stats.ghosts.size(), n);

    // Every global cell is owned (non-ghost) by exactly one shard, and
    // its payload travels verbatim.
    std::map<std::string, size_t> owners;
    size_t total_owned = 0;
    size_t total_ghosts = 0;
    for (size_t i = 0; i < n; ++i) {
      size_t owned = 0;
      size_t ghosts = 0;
      cube::CubeView shard_view = std::move(shards[i]).Seal(1);
      for (const CubeCell& cell : shard_view.Cells()) {
        const CubeCell* global = view.Find(cell.coords);
        ASSERT_NE(global, nullptr)
            << "shard " << i << " invented cell " << CoordKey(cell.coords);
        EXPECT_TRUE(SamePayload(cell, *global))
            << "payload mutated for " << CoordKey(cell.coords);
        if (cell.ghost) {
          ++ghosts;
        } else {
          ++owned;
          auto [it, inserted] =
              owners.emplace(CoordKey(cell.coords), i);
          EXPECT_TRUE(inserted)
              << CoordKey(cell.coords) << " owned by shards " << it->second
              << " and " << i;
        }
      }
      EXPECT_EQ(owned, stats.owned[i]);
      EXPECT_EQ(ghosts, stats.ghosts[i]);
      total_owned += owned;
      total_ghosts += ghosts;
    }
    EXPECT_EQ(total_owned, view.NumCells())
        << "owned cells must partition the global cube (n=" << n << ")";
    EXPECT_EQ(owners.size(), view.NumCells());
    if (n == 1) {
      EXPECT_EQ(total_ghosts, 0u)
          << "a single shard owns everything; ghosts would be waste";
    }
  }
}

TEST(PartitionTest, GhostClosureCoversCrossShardCaAdjacency) {
  cube::CubeView view = MakeGlobalCube().Seal(1);
  PartitionOptions options;
  options.num_shards = 4;
  std::vector<cube::CubeView> shards;
  for (SegregationCube& part : PartitionCube(view, options)) {
    shards.push_back(std::move(part).Seal(1));
  }

  // For every global pair (child, parent) along the CA axis — same SA,
  // parent's CA is the child's CA with one item removed — both endpoints
  // must be visible (owned or ghost) in the shard owning either one.
  size_t cross_shard_pairs = 0;
  for (const CubeCell& child : view.Cells()) {
    if (child.coords.ca.empty()) continue;
    for (fpm::ItemId removed : child.coords.ca.items()) {
      std::vector<fpm::ItemId> rest;
      for (fpm::ItemId item : child.coords.ca.items()) {
        if (item != removed) rest.push_back(item);
      }
      CellCoordinates parent_coords{child.coords.sa, fpm::Itemset(rest)};
      const CubeCell* parent = view.Find(parent_coords);
      if (parent == nullptr) continue;

      size_t child_shard = ShardOfContext(child.coords.ca, options);
      size_t parent_shard = ShardOfContext(parent_coords.ca, options);
      if (child_shard == parent_shard) continue;
      ++cross_shard_pairs;
      // The child's owner needs the parent as a comparison baseline...
      EXPECT_NE(shards[child_shard].Find(parent_coords), nullptr)
          << "shard " << child_shard << " lacks CA-parent of "
          << CoordKey(child.coords);
      // ...and the parent's owner needs the child as a drill-down target.
      EXPECT_NE(shards[parent_shard].Find(child.coords), nullptr)
          << "shard " << parent_shard << " lacks CA-child of "
          << CoordKey(parent_coords);
    }
  }
  EXPECT_GT(cross_shard_pairs, 0u)
      << "test cube too small: no cross-shard adjacency was exercised";
}

TEST(PartitionTest, ShardsCarryTheFullCatalogAndUnitLabels) {
  SegregationCube global = MakeGlobalCube();
  const size_t catalog_size = global.catalog().size();
  const std::vector<std::string> units = global.unit_labels();
  cube::CubeView view = std::move(global).Seal(1);

  PartitionOptions options;
  options.num_shards = 3;
  std::vector<SegregationCube> shards = PartitionCube(view, options);
  for (const SegregationCube& shard : shards) {
    EXPECT_EQ(shard.catalog().size(), catalog_size);
    EXPECT_EQ(shard.unit_labels(), units);
  }
}

}  // namespace
}  // namespace cluster
}  // namespace scube
