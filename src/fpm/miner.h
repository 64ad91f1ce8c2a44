// Frequent-itemset mining: options, result types and the miner entry point.
//
// SCube's data-cube construction is driven by frequent itemset mining (the
// original system uses Borgelt's FPGrowth). The one engine is FP-Growth
// (fpgrowth.cc). It only enumerates: every frequent itemset within the
// length bound and the per-class item caps. Which of them become cube cells
// (closed, maximal or all, MineMode) is decided by the cube builder from
// each candidate's row cover (cube/builder.h). Tests check the engine
// against a brute-force oracle that also decides closedness and maximality
// from their definitions.

#ifndef SCUBE_FPM_MINER_H_
#define SCUBE_FPM_MINER_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "fpm/itemset.h"
#include "fpm/transaction_db.h"

namespace scube {
namespace fpm {

/// Which itemsets become cells (decided by the cube builder, relative to
/// the length-bounded frequent collection).
enum class MineMode {
  kAll,      ///< every frequent itemset
  kClosed,   ///< frequent itemsets with no equal-support proper superset
  kMaximal,  ///< frequent itemsets with no frequent proper superset
};

/// \brief Mining parameters.
struct MinerOptions {
  /// Absolute minimum support (number of transactions). Must be >= 1.
  uint64_t min_support = 1;

  /// Maximum itemset length; mining never reports longer sets.
  uint32_t max_length = std::numeric_limits<uint32_t>::max();

  /// Per-class item caps. When non-empty, `item_class` holds each item's
  /// class (0 or 1) for every item of the database, and a reported itemset
  /// holds at most `max_class_items[c]` items of class c. The caps are
  /// anti-monotone, so they prune the recursion: an item whose class is at
  /// its cap never extends the current prefix. Empty = no caps.
  std::vector<uint8_t> item_class;
  std::array<uint32_t, 2> max_class_items = {
      std::numeric_limits<uint32_t>::max(),
      std::numeric_limits<uint32_t>::max()};

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

/// Mines every frequent itemset of `db` within `options`' length bound and
/// class caps with FP-Growth, each once, in FP-Growth's (deterministic)
/// enumeration order. InvalidArgument for options that fail
/// ValidateMinerOptions.
Result<std::vector<FrequentItemset>> MineFrequentItemsets(
    const TransactionDb& db, const MinerOptions& options);

/// Validates options (min_support >= 1, max_length >= 1, item classes 0 or
/// 1). The miner also checks that `item_class` covers the database.
Status ValidateMinerOptions(const MinerOptions& options);

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_MINER_H_
