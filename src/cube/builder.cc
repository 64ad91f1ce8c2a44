#include "cube/builder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace scube {
namespace cube {

namespace {

// One dense row bitset per item (⌈rows/64⌉ words each, item-major), plus
// one of every row for the empty context. Built once per fill from the
// transactions and shared read-only by the workers; bits past the last
// row are zero.
class DenseItemCovers {
 public:
  explicit DenseItemCovers(const fpm::TransactionDb& db)
      : num_words_((db.NumTransactions() + 63) / 64),
        words_((db.NumItems() + 1) * num_words_, 0) {
    const size_t num_rows = db.NumTransactions();
    for (uint32_t row = 0; row < num_rows; ++row) {
      const uint64_t bit = uint64_t{1} << (row % 64);
      words_[row / 64] |= bit;
      for (fpm::ItemId item : db.Transaction(row)) {
        words_[(item + size_t{1}) * num_words_ + row / 64] |= bit;
      }
    }
  }

  size_t num_words() const { return num_words_; }
  const uint64_t* AllRows() const { return words_.data(); }
  const uint64_t* Item(fpm::ItemId item) const {
    return words_.data() + (item + size_t{1}) * num_words_;
  }

 private:
  size_t num_words_;
  std::vector<uint64_t> words_;  // AllRows() first, then item 0, 1, ...
};

// One nonzero word of a dense cover.
struct CoverWord {
  size_t index;
  uint64_t bits;
};

// Calls fn(row) for every row set in `word`.
template <typename Fn>
void ForEachRow(CoverWord word, Fn&& fn) {
  while (word.bits != 0) {
    fn(word.index * 64 + static_cast<size_t>(std::countr_zero(word.bits)));
    word.bits &= word.bits - 1;
  }
}

// One candidate cell A ∪ B of a context group, with the miner's support.
struct SaCandidate {
  fpm::Itemset sa;
  uint64_t support;
};

// All candidate cells sharing one context B: the context's cover is
// computed exactly once, by exactly one worker, and so are its unit totals
// and T when at least one candidate becomes a cell.
struct ContextGroup {
  fpm::Itemset ca;
  std::vector<SaCandidate> sas;  // ordered by A (FillContextGroup relies on it)
};

// Decides which candidates become cells (CubeBuilderOptions::mode) from
// their cover words, relative to the frequent itemsets of at most
// `max_length` items. A one-item extension X ∪ {i} decides it, since any
// superset within the bound yields one with support in between: X is
// closed iff |X| = max_length or no item i ∉ X has cover(X) ⊆ cover(i),
// and maximal iff |X| = max_length or no item i ∉ X has
// |cover(X) ∩ cover(i)| >= min_support. Every frequent item is a witness,
// not only those the SA/CA caps admit: the collection is bounded by length.
class CellTest {
 public:
  CellTest(const fpm::TransactionDb& db, const DenseItemCovers& covers,
           fpm::MineMode mode, uint64_t min_support, uint32_t max_length)
      : covers_(covers),
        mode_(mode),
        min_support_(min_support),
        max_length_(max_length) {
    for (fpm::ItemId item = 0; item < db.NumItems(); ++item) {
      if (db.ItemSupport(item) >= min_support) {
        by_support_.emplace_back(item, db.ItemSupport(item));
      }
    }
    std::sort(by_support_.begin(), by_support_.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
  }

  // True iff the candidate sa ∪ ca, of `support` rows whose nonzero cover
  // words are `cover`, becomes a cell.
  bool Keep(const fpm::Itemset& sa, const fpm::Itemset& ca, uint64_t support,
            const std::vector<CoverWord>& cover) const {
    if (mode_ == fpm::MineMode::kAll) return true;
    if (sa.size() + ca.size() >= max_length_) return true;
    const bool closed = mode_ == fpm::MineMode::kClosed;
    for (const auto& [item, item_support] : by_support_) {
      if (closed && item_support < support) break;  // too rare to cover X
      if (sa.Contains(item) || ca.Contains(item)) continue;
      const uint64_t* words = covers_.Item(item);
      if (closed) {
        // cover(X) ⊆ cover(i)? Rejects i at the first word it misses.
        if (std::none_of(cover.begin(), cover.end(), [&](CoverWord w) {
              return (w.bits & ~words[w.index]) != 0;
            })) {
          return false;
        }
      } else {
        // Counts the rows i shares with X, up to min_support.
        uint64_t shared = 0;
        for (const CoverWord& w : cover) {
          shared += std::popcount(w.bits & words[w.index]);
          if (shared >= min_support_) return false;
        }
      }
    }
    return true;
  }

 private:
  const DenseItemCovers& covers_;
  fpm::MineMode mode_;
  uint64_t min_support_;
  uint32_t max_length_;
  // Frequent items, most frequent first: an infrequent item extends no
  // candidate within the collection.
  std::vector<std::pair<fpm::ItemId, uint64_t>> by_support_;
};

// Per-worker mutable state: no worker ever touches another worker's
// scratch, so the fill needs no locks at all. The dense per-unit arrays
// are all zero between calls.
struct WorkerScratch {
  explicit WorkerScratch(size_t num_units)
      : unit_counts(num_units, 0), minority_counts(num_units, 0) {}

  std::vector<CoverWord> ctx_cover;       // the context's nonzero words
  // cover_by_length[k - 1]: the nonzero words of the cover of the latest
  // candidate with k SA items.
  std::vector<std::vector<CoverWord>> cover_by_length;
  std::vector<uint32_t> units;            // the context's units, ascending
  std::vector<uint32_t> unit_totals;      // t_i, parallel to `units`
  uint64_t context_total = 0;             // T, the sum of unit_totals
  std::vector<uint32_t> unit_minorities;  // the cell's m_i, parallel too
  std::vector<uint32_t> unit_counts;      // dense t_i scratch
  std::vector<uint32_t> minority_counts;  // dense m_i scratch
  indexes::IndexScratch index_scratch;
};

// Fills every candidate of one context group that `test` keeps into
// `out_cells` (in grp.sas order). Returns the first index-computation
// error, if any.
Status FillContextGroup(const relational::EncodedRelation& encoded,
                        const DenseItemCovers& covers,
                        const indexes::UnitTermTable& terms,
                        const CellTest& test, const ContextGroup& grp,
                        WorkerScratch& ws, std::vector<CubeCell>* out_cells) {
  const std::vector<uint32_t>& row_unit = encoded.row_unit;

  // Context cover: the AND of B's item covers, kept as its nonzero words.
  ws.ctx_cover.clear();
  for (size_t w = 0; w < covers.num_words(); ++w) {
    uint64_t bits = covers.AllRows()[w];
    for (fpm::ItemId item : grp.ca.items()) bits &= covers.Item(item)[w];
    if (bits != 0) ws.ctx_cover.push_back({w, bits});
  }

  bool have_totals = false;
  for (const SaCandidate& cand : grp.sas) {
    // Candidate cover: cover(A ∪ B) = cover(B) ∩ the item covers of A, kept
    // as its nonzero words. A less its last item is a candidate too, and in
    // A order it is the latest candidate of its length before A, so A's
    // last item narrows the cover kept for that length.
    const size_t k = cand.sa.size();
    if (k > 0) {
      if (ws.cover_by_length.size() < k) ws.cover_by_length.resize(k);
      const std::vector<CoverWord>& prefix =
          k == 1 ? ws.ctx_cover : ws.cover_by_length[k - 2];
      const uint64_t* item_words = covers.Item(cand.sa[k - 1]);
      std::vector<CoverWord>& cover = ws.cover_by_length[k - 1];
      cover.clear();
      for (CoverWord word : prefix) {
        word.bits &= item_words[word.index];
        if (word.bits != 0) cover.push_back(word);
      }
    }
    const std::vector<CoverWord>& cell_cover =
        k == 0 ? ws.ctx_cover : ws.cover_by_length[k - 1];
    if (!test.Keep(cand.sa, grp.ca, cand.support, cell_cover)) continue;

    // Per-unit totals t_i, in unit order, at the context's first cell:
    // most candidate contexts hold no cell.
    if (!have_totals) {
      have_totals = true;
      ws.units.clear();
      for (const CoverWord& word : ws.ctx_cover) {
        ForEachRow(word, [&](size_t row) {
          const uint32_t unit = row_unit[row];
          if (ws.unit_counts[unit]++ == 0) ws.units.push_back(unit);
        });
      }
      std::sort(ws.units.begin(), ws.units.end());
      ws.unit_totals.clear();
      ws.context_total = 0;
      for (uint32_t unit : ws.units) {
        ws.unit_totals.push_back(ws.unit_counts[unit]);
        ws.context_total += ws.unit_counts[unit];
        ws.unit_counts[unit] = 0;
      }
      ws.unit_minorities.resize(ws.units.size());
    }
    // m_i per unit, and M = |cover(A ∪ B)|.
    uint64_t minority = 0;
    for (const CoverWord& word : cell_cover) {
      minority += static_cast<uint64_t>(std::popcount(word.bits));
      ForEachRow(word,
                 [&](size_t row) { ++ws.minority_counts[row_unit[row]]; });
    }
    for (size_t j = 0; j < ws.units.size(); ++j) {
      ws.unit_minorities[j] = ws.minority_counts[ws.units[j]];
      ws.minority_counts[ws.units[j]] = 0;
    }

    CubeCell cell;
    cell.coords = CellCoordinates{cand.sa, grp.ca};
    cell.context_size = ws.context_total;
    cell.minority_size = minority;
    cell.num_units = static_cast<uint32_t>(ws.units.size());
    auto idx = indexes::ComputeAllIndexes(ws.unit_totals, ws.unit_minorities,
                                          ws.context_total, minority, terms,
                                          &ws.index_scratch);
    if (!idx.ok()) return idx.status();
    cell.indexes = idx.value();
    out_cells->push_back(std::move(cell));
  }
  return Status::OK();
}

}  // namespace

Result<SegregationCube> BuildSegregationCube(
    const relational::EncodedRelation& encoded,
    const CubeBuilderOptions& options, CubeBuildStats* stats) {
  CubeBuildStats local_stats;
  CubeBuildStats* st = stats != nullptr ? stats : &local_stats;
  *st = CubeBuildStats{};

  if (options.max_sa_items == 0) {
    return Status::InvalidArgument("max_sa_items must be >= 1");
  }
  const size_t num_rows = encoded.db.NumTransactions();
  if (num_rows == 0) {
    return Status::FailedPrecondition("finalTable has no rows");
  }

  // Also rejects NaN; inf would make the cast below undefined.
  if (!(options.min_support_fraction >= 0.0 &&
        options.min_support_fraction <= 1.0)) {
    return Status::InvalidArgument("min_support_fraction must be in [0,1]");
  }
  uint64_t min_support = options.min_support;
  if (options.min_support_fraction > 0.0) {
    min_support = std::max(
        min_support, static_cast<uint64_t>(std::ceil(
                         options.min_support_fraction * num_rows)));
  }
  if (min_support < 1) min_support = 1;

  // --- Mining -------------------------------------------------------------
  // FP-Growth enumerates the candidates: frequent itemsets within both
  // caps. Which become cells is decided in the fill (CellTest).
  WallTimer timer;
  trace::Span mine_span(options.trace, "build.mine");
  fpm::MinerOptions mine_opts;
  mine_opts.min_support = min_support;
  // Either cap may be UINT32_MAX (no cap): saturate rather than wrap.
  mine_opts.max_length = static_cast<uint32_t>(
      std::min<uint64_t>(uint64_t{options.max_sa_items} + options.max_ca_items,
                         std::numeric_limits<uint32_t>::max()));
  SCUBE_CHECK(encoded.db.NumItems() <= encoded.catalog.size());
  for (fpm::ItemId item = 0; item < encoded.db.NumItems(); ++item) {
    const bool sa = encoded.catalog.info(item).kind ==
                    relational::AttributeKind::kSegregation;
    mine_opts.item_class.push_back(sa ? 0 : 1);
  }
  mine_opts.max_class_items = {options.max_sa_items, options.max_ca_items};
  mine_opts.include_empty = true;  // the all-⋆ root and pure-SA cells
  auto mined = fpm::MineFrequentItemsets(encoded.db, mine_opts);
  if (!mined.ok()) return mined.status();
  mine_span.End();
  st->seconds_mining = timer.Seconds();
  st->mined_itemsets = mined.value().size();

  // --- Grouping prepass ---------------------------------------------------
  // Split every candidate and group them by context B, in first-seen
  // (mined) order. Workers then own whole groups, so a context's cover and
  // unit totals are computed at most once with no shared memo map to
  // contend on.
  timer.Reset();
  trace::Span group_span(options.trace, "build.group");
  std::vector<ContextGroup> groups;
  std::unordered_map<fpm::Itemset, size_t, fpm::ItemsetHash> group_of;
  for (const fpm::FrequentItemset& fs : mined.value()) {
    fpm::Itemset sa, ca;
    encoded.catalog.Split(fs.items, &sa, &ca);
    auto [it, inserted] = group_of.try_emplace(ca, groups.size());
    if (inserted) groups.push_back(ContextGroup{std::move(ca), {}});
    groups[it->second].sas.push_back(SaCandidate{std::move(sa), fs.support});
  }
  mined.value().clear();  // the groups hold every candidate now
  for (ContextGroup& grp : groups) {
    std::sort(grp.sas.begin(), grp.sas.end(),
              [](const SaCandidate& x, const SaCandidate& y) {
                return x.sa < y.sa;
              });
  }
  group_span.End();
  st->seconds_grouping = timer.Seconds();

  // --- Filling ------------------------------------------------------------
  timer.Reset();
  trace::Span fill_span(options.trace, "build.fill");
  SegregationCube cube(encoded.catalog, encoded.unit_labels);
  size_t threads =
      std::min(ThreadPool::EffectiveThreads(options.num_threads),
               std::max<size_t>(1, groups.size()));
  if (threads > 1) {
    // The shared pool caps achievable parallelism at its worker count
    // plus the calling thread; report what can actually run, not what
    // was asked for.
    threads = std::min(threads, ThreadPool::Shared().num_threads() + 1);
  }
  st->threads_used = static_cast<uint32_t>(threads);

  const DenseItemCovers covers(encoded.db);
  const CellTest test(encoded.db, covers, options.mode, min_support,
                      mine_opts.max_length);
  const size_t num_units = encoded.unit_labels.size();
  // No cell's t_i exceeds its unit's size, so a table up to the largest
  // unit (or the table bound) serves every unit the bound allows.
  std::vector<uint64_t> unit_sizes(num_units, 0);
  for (uint32_t unit : encoded.row_unit) ++unit_sizes[unit];
  auto terms = indexes::UnitTermTable::Build(
      unit_sizes.empty()
          ? 0
          : *std::max_element(unit_sizes.begin(), unit_sizes.end()),
      options.index_params);
  if (!terms.ok()) return terms.status();
  std::vector<std::vector<CubeCell>> group_cells(groups.size());
  std::vector<Status> group_status(groups.size());
  // The explicit sequential branch keeps single-threaded builds from
  // instantiating the process-wide pool (ParallelFor would work, but
  // Shared() spawns hardware_concurrency workers on first touch).
  if (threads <= 1) {
    WorkerScratch scratch(num_units);
    for (size_t g = 0; g < groups.size(); ++g) {
      group_status[g] =
          FillContextGroup(encoded, covers, terms.value(), test, groups[g],
                           scratch, &group_cells[g]);
    }
  } else {
    std::vector<std::unique_ptr<WorkerScratch>> scratch(threads);
    ThreadPool::Shared().ParallelFor(
        groups.size(), threads, [&](size_t worker, size_t g) {
          if (scratch[worker] == nullptr) {
            scratch[worker] = std::make_unique<WorkerScratch>(num_units);
          }
          group_status[g] =
              FillContextGroup(encoded, covers, terms.value(), test,
                               groups[g], *scratch[worker], &group_cells[g]);
        });
  }

  // Deterministic merge: group order, then A's order within the group —
  // the same cells, values and stats as the sequential fill, bit for bit.
  for (size_t g = 0; g < groups.size(); ++g) {
    if (!group_status[g].ok()) return group_status[g];
    if (!group_cells[g].empty()) ++st->contexts_memoized;
    for (CubeCell& cell : group_cells[g]) {
      if (cell.indexes.defined) ++st->cells_defined;
      ++st->cells_created;
      cube.Insert(std::move(cell));
    }
  }
  fill_span.End();
  st->seconds_filling = timer.Seconds();
  return cube;
}

Result<SegregationCube> BuildSegregationCube(
    const relational::Table& final_table, const CubeBuilderOptions& options,
    CubeBuildStats* stats) {
  WallTimer timer;
  trace::Span encode_span(options.trace, "build.encode");
  auto encoded = relational::EncodeForAnalysis(final_table);
  encode_span.End();
  if (!encoded.ok()) return encoded.status();
  double encode_secs = timer.Seconds();
  auto cube = BuildSegregationCube(encoded.value(), options, stats);
  if (cube.ok() && stats != nullptr) stats->seconds_encoding = encode_secs;
  return cube;
}

}  // namespace cube
}  // namespace scube
