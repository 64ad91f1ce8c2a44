// TransactionDb: the in-memory transaction database mined by SCube.
//
// Each transaction is a sorted set of items (one transaction per individual
// in the finalTable). Item supports are counted as transactions arrive;
// they seed FP-Growth's item order. The cube fill builds its own dense row
// bitsets from the transactions (cube/builder.cc).

#ifndef SCUBE_FPM_TRANSACTION_DB_H_
#define SCUBE_FPM_TRANSACTION_DB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fpm/item.h"

namespace scube {
namespace fpm {

/// \brief Append-only transaction database with per-item supports.
class TransactionDb {
 public:
  TransactionDb() = default;

  /// Appends a transaction (items are sorted/deduplicated internally).
  /// Returns the transaction id (0-based, dense).
  uint32_t AddTransaction(std::vector<ItemId> items);

  /// Number of transactions.
  size_t NumTransactions() const { return transactions_.size(); }

  /// One past the largest item id seen (dense item universe size).
  size_t NumItems() const { return supports_.size(); }

  /// The (sorted) items of transaction `tid`.
  const std::vector<ItemId>& Transaction(uint32_t tid) const {
    return transactions_[tid];
  }

  /// Number of transactions containing `item` (0 for unseen items).
  uint64_t ItemSupport(ItemId item) const {
    return item < supports_.size() ? supports_[item] : 0;
  }

 private:
  std::vector<std::vector<ItemId>> transactions_;
  std::vector<uint64_t> supports_;  ///< indexed by ItemId
};

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_TRANSACTION_DB_H_
