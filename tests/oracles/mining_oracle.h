// Brute-force mining oracle shared by the miner, cube-builder and loader
// tests.
//
// The cube's cells are defined in three steps, and the oracle takes them
// literally: enumerate every frequent itemset of at most max_length items
// (an exhaustive DFS with a transaction scan per candidate), keep the
// closed or maximal ones by their definitions relative to that
// length-bounded collection, and only then drop the itemsets over the
// per-class (SA/CA) caps. Exponential and quadratic: small inputs only.

#ifndef SCUBE_TESTS_ORACLES_MINING_ORACLE_H_
#define SCUBE_TESTS_ORACLES_MINING_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/result.h"
#include "cube/builder.h"
#include "cube/cell.h"
#include "fpm/miner.h"
#include "fpm/transaction_db.h"
#include "relational/transactions.h"

namespace scube {
namespace oracle {

inline uint64_t ScanSupport(const fpm::TransactionDb& db,
                            const std::vector<fpm::ItemId>& items) {
  uint64_t support = 0;
  for (uint32_t tid = 0; tid < db.NumTransactions(); ++tid) {
    const auto& t = db.Transaction(tid);
    if (std::includes(t.begin(), t.end(), items.begin(), items.end())) {
      ++support;
    }
  }
  return support;
}

namespace internal {

inline void Dfs(const fpm::TransactionDb& db, uint64_t min_support,
                uint32_t max_length, std::vector<fpm::ItemId>* prefix,
                fpm::ItemId next_item,
                std::vector<fpm::FrequentItemset>* out) {
  if (prefix->size() >= max_length) return;
  for (fpm::ItemId item = next_item; item < db.NumItems(); ++item) {
    prefix->push_back(item);
    const uint64_t support = ScanSupport(db, *prefix);
    if (support >= min_support) {
      out->push_back({fpm::Itemset(*prefix), support});
      Dfs(db, min_support, max_length, prefix, item + 1, out);
    }
    prefix->pop_back();
  }
}

// Keeps X unless a proper superset Y in `sets` drops it.
template <typename Drops>
std::vector<fpm::FrequentItemset> KeepUndropped(
    const std::vector<fpm::FrequentItemset>& sets, Drops drops) {
  std::vector<fpm::FrequentItemset> out;
  for (const fpm::FrequentItemset& x : sets) {
    const bool dropped = std::any_of(
        sets.begin(), sets.end(), [&](const fpm::FrequentItemset& y) {
          return y.items.size() > x.items.size() &&
                 x.items.IsSubsetOf(y.items) && drops(x, y);
        });
    if (!dropped) out.push_back(x);
  }
  return out;
}

}  // namespace internal

/// Sorts by length, then lexicographically by items (canonical order).
inline void SortItemsets(std::vector<fpm::FrequentItemset>* sets) {
  std::sort(sets->begin(), sets->end(),
            [](const fpm::FrequentItemset& a, const fpm::FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return a.items < b.items;
            });
}

/// Every frequent itemset of at most `max_length` items, plus the empty
/// one (support = |DB|) when `include_empty`.
inline std::vector<fpm::FrequentItemset> MineFrequent(
    const fpm::TransactionDb& db, uint64_t min_support, uint32_t max_length,
    bool include_empty) {
  std::vector<fpm::FrequentItemset> out;
  if (include_empty) out.push_back({fpm::Itemset(), db.NumTransactions()});
  std::vector<fpm::ItemId> prefix;
  internal::Dfs(db, min_support, max_length, &prefix, 0, &out);
  return out;
}

/// Keeps the itemsets of `sets` that no proper superset in `sets` matches
/// in support: closed relative to the given collection.
inline std::vector<fpm::FrequentItemset> FilterClosed(
    const std::vector<fpm::FrequentItemset>& sets) {
  return internal::KeepUndropped(
      sets, [](const fpm::FrequentItemset& x, const fpm::FrequentItemset& y) {
        return y.support == x.support;
      });
}

/// Keeps the itemsets of `sets` with no proper superset in `sets` at all:
/// maximal relative to the given collection.
inline std::vector<fpm::FrequentItemset> FilterMaximal(
    const std::vector<fpm::FrequentItemset>& sets) {
  return internal::KeepUndropped(
      sets, [](const fpm::FrequentItemset&, const fpm::FrequentItemset&) {
        return true;
      });
}

/// Drops the itemsets over `options`' per-class caps (none when
/// `options.item_class` is empty).
inline std::vector<fpm::FrequentItemset> ApplyCaps(
    std::vector<fpm::FrequentItemset> sets, const fpm::MinerOptions& options) {
  if (options.item_class.empty()) return sets;
  std::vector<fpm::FrequentItemset> out;
  for (fpm::FrequentItemset& fs : sets) {
    uint64_t count[2] = {0, 0};
    for (fpm::ItemId item : fs.items.items()) {
      ++count[options.item_class[item]];
    }
    if (count[0] <= options.max_class_items[0] &&
        count[1] <= options.max_class_items[1]) {
      out.push_back(std::move(fs));
    }
  }
  return out;
}

/// The oracle: the length-bounded frequent collection of `options`, the
/// `mode`'s filter over it, then `options`' caps; in SortItemsets order.
inline Result<std::vector<fpm::FrequentItemset>> Mine(
    const fpm::TransactionDb& db, const fpm::MinerOptions& options,
    fpm::MineMode mode = fpm::MineMode::kAll) {
  SCUBE_RETURN_IF_ERROR(fpm::ValidateMinerOptions(options));
  std::vector<fpm::FrequentItemset> sets = MineFrequent(
      db, options.min_support, options.max_length, options.include_empty);
  if (mode == fpm::MineMode::kClosed) sets = FilterClosed(sets);
  if (mode == fpm::MineMode::kMaximal) sets = FilterMaximal(sets);
  sets = ApplyCaps(std::move(sets), options);
  SortItemsets(&sets);
  return sets;
}

/// What the oracle knows of a cell: T and M.
struct Cell {
  uint64_t context_size = 0;
  uint64_t minority_size = 0;

  bool operator==(const Cell& other) const {
    return context_size == other.context_size &&
           minority_size == other.minority_size;
  }
};

/// The cells BuildSegregationCube(encoded, options) must create, keyed by
/// coordinates: SA items are the catalog's kSegregation items, every other
/// item is a CA item.
inline std::map<cube::CellCoordinates, Cell> CubeCells(
    const relational::EncodedRelation& encoded,
    const cube::CubeBuilderOptions& options) {
  const fpm::TransactionDb& db = encoded.db;
  uint64_t min_support = options.min_support;
  if (options.min_support_fraction > 0.0) {
    min_support = std::max(
        min_support,
        static_cast<uint64_t>(std::ceil(options.min_support_fraction *
                                        db.NumTransactions())));
  }
  fpm::MinerOptions mine;
  mine.min_support = std::max<uint64_t>(min_support, 1);
  mine.max_length = static_cast<uint32_t>(std::min<uint64_t>(
      uint64_t{options.max_sa_items} + options.max_ca_items,
      std::numeric_limits<uint32_t>::max()));
  mine.include_empty = true;
  for (fpm::ItemId item = 0; item < db.NumItems(); ++item) {
    mine.item_class.push_back(encoded.catalog.info(item).kind ==
                                      relational::AttributeKind::kSegregation
                                  ? 0
                                  : 1);
  }
  mine.max_class_items = {options.max_sa_items, options.max_ca_items};

  std::map<cube::CellCoordinates, Cell> cells;
  auto mined = Mine(db, mine, options.mode);
  if (!mined.ok()) return cells;
  for (const fpm::FrequentItemset& fs : mined.value()) {
    cube::CellCoordinates coords;
    encoded.catalog.Split(fs.items, &coords.sa, &coords.ca);
    const uint64_t context_size = ScanSupport(db, coords.ca.items());
    cells[coords] = Cell{context_size, fs.support};
  }
  return cells;
}

}  // namespace oracle
}  // namespace scube

#endif  // SCUBE_TESTS_ORACLES_MINING_ORACLE_H_
