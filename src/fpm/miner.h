// Frequent-itemset mining: options, result types and the miner entry point.
//
// SCube's data-cube construction is driven by frequent (closed) itemset
// mining (the original system uses Borgelt's FPGrowth). The one engine is
// FP-Growth (fpgrowth.cc). Tests check it against a brute-force oracle that
// decides closedness and maximality from their definitions.

#ifndef SCUBE_FPM_MINER_H_
#define SCUBE_FPM_MINER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "fpm/itemset.h"
#include "fpm/transaction_db.h"

namespace scube {
namespace fpm {

/// Which itemsets to report.
enum class MineMode {
  kAll,      ///< every frequent itemset
  kClosed,   ///< frequent itemsets with no equal-support proper superset
  kMaximal,  ///< frequent itemsets with no frequent proper superset
};

/// \brief Mining parameters.
struct MinerOptions {
  /// Absolute minimum support (number of transactions). Must be >= 1.
  uint64_t min_support = 1;

  /// Maximum itemset length; mining never reports longer sets. Closedness /
  /// maximality are relative to the length-bounded collection.
  uint32_t max_length = std::numeric_limits<uint32_t>::max();

  /// Which itemsets to report.
  MineMode mode = MineMode::kAll;

  /// When true, the empty itemset (support = |DB|) is included.
  bool include_empty = false;
};

/// \brief A mined itemset with its support.
struct FrequentItemset {
  Itemset items;
  uint64_t support = 0;

  bool operator==(const FrequentItemset& other) const {
    return support == other.support && items == other.items;
  }
};

/// Mines `db` under `options` with FP-Growth. Deterministic; the result is
/// in SortItemsets order. InvalidArgument for options that fail
/// ValidateMinerOptions.
Result<std::vector<FrequentItemset>> MineFrequentItemsets(
    const TransactionDb& db, const MinerOptions& options);

/// Sorts by length, then lexicographically by items (canonical order).
void SortItemsets(std::vector<FrequentItemset>* sets);

/// Validates options (min_support >= 1 etc.).
Status ValidateMinerOptions(const MinerOptions& options);

/// Keeps only closed itemsets: no proper superset in `sets` has equal
/// support. Exact; relative to the given collection.
std::vector<FrequentItemset> FilterClosed(std::vector<FrequentItemset> sets);

/// Keeps only maximal itemsets: no proper superset in `sets` at all.
std::vector<FrequentItemset> FilterMaximal(std::vector<FrequentItemset> sets);

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_MINER_H_
