// Itemset: an immutable, sorted, duplicate-free set of items.

#ifndef SCUBE_FPM_ITEMSET_H_
#define SCUBE_FPM_ITEMSET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fpm/item.h"

namespace scube {
namespace fpm {

/// \brief Sorted vector of distinct ItemIds with set operations.
class Itemset {
 public:
  Itemset() = default;

  /// Takes arbitrary items; sorts and deduplicates.
  explicit Itemset(std::vector<ItemId> items);

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const std::vector<ItemId>& items() const { return items_; }
  ItemId operator[](size_t i) const { return items_[i]; }

  /// True iff `item` is a member. O(log n).
  bool Contains(ItemId item) const;

  /// True iff every item of this set is in `other`.
  bool IsSubsetOf(const Itemset& other) const;

  /// Set difference (result is sorted).
  Itemset Minus(const Itemset& other) const;

  /// New set with `item` added (no-op if present).
  Itemset With(ItemId item) const;

  /// Order-insensitive 64-bit hash.
  uint64_t Hash() const;

  bool operator==(const Itemset& other) const { return items_ == other.items_; }
  bool operator!=(const Itemset& other) const { return !(*this == other); }
  /// Lexicographic order (for deterministic output ordering).
  bool operator<(const Itemset& other) const { return items_ < other.items_; }

  /// Debug rendering, e.g. "[2 5 9]".
  std::string DebugString() const;

 private:
  std::vector<ItemId> items_;
};

/// Hash functor for unordered containers keyed by Itemset.
struct ItemsetHash {
  size_t operator()(const Itemset& s) const {
    return static_cast<size_t>(s.Hash());
  }
};

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_ITEMSET_H_
