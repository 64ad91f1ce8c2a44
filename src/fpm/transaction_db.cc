#include "fpm/transaction_db.h"

#include <algorithm>

namespace scube {
namespace fpm {

uint32_t TransactionDb::AddTransaction(std::vector<ItemId> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  if (!items.empty() && items.back() >= supports_.size()) {
    supports_.resize(static_cast<size_t>(items.back()) + 1, 0);
  }
  for (ItemId item : items) ++supports_[item];
  transactions_.push_back(std::move(items));
  return static_cast<uint32_t>(transactions_.size() - 1);
}

}  // namespace fpm
}  // namespace scube
