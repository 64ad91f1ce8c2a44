#include "fpm/itemset.h"

#include <algorithm>

#include "common/hashing.h"

namespace scube {
namespace fpm {

Itemset::Itemset(std::vector<ItemId> items) : items_(std::move(items)) {
  std::sort(items_.begin(), items_.end());
  items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
}

bool Itemset::Contains(ItemId item) const {
  return std::binary_search(items_.begin(), items_.end(), item);
}

bool Itemset::IsSubsetOf(const Itemset& other) const {
  return std::includes(other.items_.begin(), other.items_.end(),
                       items_.begin(), items_.end());
}

Itemset Itemset::Minus(const Itemset& other) const {
  std::vector<ItemId> out;
  std::set_difference(items_.begin(), items_.end(), other.items_.begin(),
                      other.items_.end(), std::back_inserter(out));
  Itemset result;
  result.items_ = std::move(out);
  return result;
}

Itemset Itemset::With(ItemId item) const {
  if (Contains(item)) return *this;
  std::vector<ItemId> out = items_;
  out.insert(std::upper_bound(out.begin(), out.end(), item), item);
  Itemset result;
  result.items_ = std::move(out);
  return result;
}

uint64_t Itemset::Hash() const {
  uint64_t h = 0x17E45E7345ULL;
  for (ItemId item : items_) h = HashCombine(h, Mix64(item));
  return h;
}

std::string Itemset::DebugString() const {
  std::string out = "[";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += " ";
    out += std::to_string(items_[i]);
  }
  out += "]";
  return out;
}

}  // namespace fpm
}  // namespace scube
