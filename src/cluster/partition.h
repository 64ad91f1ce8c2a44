// Shard partitioner: splits one sealed cube (cube::CubeView) into N
// shard cubes, partitioned by the *context* coordinate (CA). Every cell
// with the same CA lands on the same shard, so an exact-CA slice group,
// and every SA-axis neighbour of a cell (SA-removal parents, SA-extension
// children — they share the cell's CA), is shard-local.
//
// Cross-shard adjacency is handled by **ghost cells**: for each owned
// cell, its CA-removal parents and CA-extension children that hash to a
// different shard are replicated into the shard with CubeCell::ghost set.
// Ghosts participate fully in the shard view's indexes and adjacency —
// they are the comparison baselines SURPRISES/REVERSALS evaluate owned
// cells against, and the probe targets ROLLUP/DRILLDOWN anchor on — but
// the executor never *emits* them, so each shard's row stream is an exact
// disjoint subsequence of the global stream. That disjointness is what
// makes per-shard LIMIT pushdown and the router's k-way merge-key
// stitching byte-identical to a single node.
//
// Assignment is deterministic across processes: a stable FNV-1a over the
// CA item ids (4 bytes little-endian each), NOT fpm::Itemset::Hash — N
// independent shard processes building their own slice of a demo cube
// must agree on ownership without coordination.

#ifndef SCUBE_CLUSTER_PARTITION_H_
#define SCUBE_CLUSTER_PARTITION_H_

#include <cstdint>
#include <vector>

#include "cube/cube.h"
#include "cube/cube_view.h"
#include "fpm/itemset.h"

namespace scube {
namespace cluster {

/// \brief Partitioning knobs.
struct PartitionOptions {
  size_t num_shards = 1;
};

/// Stable FNV-1a over the CA item ids (4 bytes little-endian per item).
/// Deterministic across processes and builds — the whole point.
uint64_t ContextFingerprint(const fpm::Itemset& ca);

/// The shard owning context coordinate `ca`: its ContextFingerprint mod
/// options.num_shards.
size_t ShardOfContext(const fpm::Itemset& ca, const PartitionOptions& options);

/// \brief Per-shard accounting from one PartitionCube call.
struct PartitionStats {
  std::vector<size_t> owned;  ///< cells the shard answers for
  std::vector<size_t> ghosts; ///< replicated adjacency baselines
};

/// Splits `view` into options.num_shards build-side cubes. Shard i holds
/// every cell whose CA it owns (ghost = false) plus the one-hop ghost
/// closure of those cells across the CA axis (ghost = true). Each shard
/// cube carries the full catalog and unit labels, so label rendering and
/// coordinate resolution match the global cube exactly. Seal() each
/// result to serve it.
std::vector<cube::SegregationCube> PartitionCube(
    const cube::CubeView& view, const PartitionOptions& options,
    PartitionStats* stats = nullptr);

}  // namespace cluster
}  // namespace scube

#endif  // SCUBE_CLUSTER_PARTITION_H_
