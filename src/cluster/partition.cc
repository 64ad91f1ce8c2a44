#include "cluster/partition.h"

#include <algorithm>
#include <string_view>

#include "common/hashing.h"

namespace scube {
namespace cluster {

uint64_t ContextFingerprint(const fpm::Itemset& ca) {
  // FNV-1a 64-bit, bytes fed as 4 little-endian bytes per item id. The
  // itemset is stored sorted, so equal sets always feed equal bytes.
  uint64_t h = kFnvTruncatedBasis;
  for (fpm::ItemId item : ca.items()) {
    const uint32_t v = static_cast<uint32_t>(item);
    const char bytes[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                           static_cast<char>(v >> 16),
                           static_cast<char>(v >> 24)};
    h = HashBytes(std::string_view(bytes, 4), h);
  }
  return h;
}

size_t ShardOfContext(const fpm::Itemset& ca,
                      const PartitionOptions& options) {
  const size_t n = std::max<size_t>(1, options.num_shards);
  return static_cast<size_t>(ContextFingerprint(ca) % n);
}

std::vector<cube::SegregationCube> PartitionCube(
    const cube::CubeView& view, const PartitionOptions& options,
    PartitionStats* stats) {
  const size_t n = std::max<size_t>(1, options.num_shards);

  std::vector<cube::SegregationCube> shards;
  shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    shards.emplace_back(view.catalog(), view.unit_labels());
  }
  if (stats != nullptr) {
    stats->owned.assign(n, 0);
    stats->ghosts.assign(n, 0);
  }

  // Ownership per cell id, computed once — the ghost pass reuses it.
  const auto cells = view.Cells();
  std::vector<uint32_t> owner(cells.size());
  for (size_t id = 0; id < cells.size(); ++id) {
    owner[id] = static_cast<uint32_t>(
        ShardOfContext(cells[id].coords.ca, options));
  }

  // Pass 1: every cell goes to its owner, ghost flag cleared.
  for (size_t id = 0; id < cells.size(); ++id) {
    cube::CubeCell copy = cells[id];
    copy.ghost = false;
    if (stats != nullptr) ++stats->owned[owner[id]];
    shards[owner[id]].Insert(std::move(copy));
  }

  // Pass 2: one-hop ghost closure across the CA axis. SA-axis neighbours
  // share the cell's CA and are therefore already shard-local; only
  // CA-removal parents and CA-extension children can live elsewhere.
  auto replicate = [&](size_t into, const cube::CubeCell& cell) {
    // Insert replaces, so never overwrite the shard's own copy; a ghost
    // inserted twice is harmless (identical payload).
    if (shards[into].Find(cell.coords) != nullptr) return;
    cube::CubeCell copy = cell;
    copy.ghost = true;
    if (stats != nullptr) ++stats->ghosts[into];
    shards[into].Insert(std::move(copy));
  };
  for (cube::CubeView::CellId id = 0; id < cells.size(); ++id) {
    const cube::CubeCell& cell = cells[id];
    const size_t home = owner[id];
    for (cube::CubeView::CellId pid : view.Parents(id)) {
      if (owner[pid] != home) replicate(home, view.cell(pid));
      // The parent's shard also needs this cell: it is the parent's
      // CA-extension child (ROLLUP anchors there, REVERSALS compares it).
      if (owner[pid] != home) replicate(owner[pid], cell);
    }
    // Children: the child edge is the parent edge seen from the other
    // end, so the loop above already replicated both directions — every
    // (parent, child) pair is visited once with id = child.
  }

  return shards;
}

}  // namespace cluster
}  // namespace scube
