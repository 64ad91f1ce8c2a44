// Cube cell: coordinates (SA itemset x CA itemset) and index payload.

#ifndef SCUBE_CUBE_CELL_H_
#define SCUBE_CUBE_CELL_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/hashing.h"
#include "common/string_util.h"
#include "fpm/itemset.h"
#include "indexes/segregation_index.h"

namespace scube {
namespace cube {

/// \brief A cell address: the minority subgroup A (segregation items) and
/// the context B (context items). Empty itemsets denote "⋆".
struct CellCoordinates {
  fpm::Itemset sa;  ///< minority subgroup (e.g. sex=F & age=young)
  fpm::Itemset ca;  ///< context (e.g. region=north)

  bool operator==(const CellCoordinates& other) const {
    return sa == other.sa && ca == other.ca;
  }
  /// Deterministic ordering: by (|sa|+|ca|, sa, ca).
  bool operator<(const CellCoordinates& other) const;

  uint64_t Hash() const { return HashCombine(sa.Hash(), ca.Hash()); }
};

struct CellCoordinatesHash {
  size_t operator()(const CellCoordinates& c) const {
    return static_cast<size_t>(c.Hash());
  }
};

/// \brief One materialised cube cell.
struct CubeCell {
  CellCoordinates coords;

  /// T: population satisfying the CA coordinates.
  uint64_t context_size = 0;

  /// M: population satisfying both SA and CA coordinates.
  uint64_t minority_size = 0;

  /// Number of organisational units with population in this context.
  uint32_t num_units = 0;

  /// The six index values; `indexes.defined` is false for degenerate cells
  /// (M = 0 or M = T), rendered as "-" in reports (paper Fig. 1).
  indexes::IndexVector indexes;

  /// Convenience accessor; only meaningful when indexes.defined.
  double Value(indexes::IndexKind kind) const { return indexes[kind]; }

  /// Shard-replica marker (cluster/partition.h): a ghost is a copy of a
  /// cell owned by another shard, replicated so adjacency-based analytics
  /// (SURPRISES/REVERSALS) see their cross-shard comparison neighbours.
  /// Ghosts participate in every index and adjacency walk, except that
  /// the view's findings lists leave them out, and are never emitted as
  /// query results — each global cell is emitted by exactly one shard.
  /// Always false outside sharded deployments.
  bool ghost = false;
};

/// \brief A cell's six index values as the result writers print them
/// (AppendDouble6g, "%.6g"), rendered once when the view is sealed so a
/// streamed row copies bytes instead of formatting doubles.
class IndexTexts {
 public:
  IndexTexts() = default;
  explicit IndexTexts(const indexes::IndexVector& values);

  std::string_view operator[](indexes::IndexKind kind) const {
    const size_t k = static_cast<size_t>(kind);
    return {bytes_[k].data(), sizes_[k]};
  }

 private:
  std::array<std::array<char, kMaxDouble6gSize>, indexes::kNumIndexKinds>
      bytes_{};
  std::array<uint8_t, indexes::kNumIndexKinds> sizes_{};
};

}  // namespace cube
}  // namespace scube

#endif  // SCUBE_CUBE_CELL_H_
