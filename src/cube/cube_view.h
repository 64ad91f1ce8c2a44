// CubeView: the sealed, immutable, indexed read side of the segregation
// cube (build -> seal -> publish -> query lifecycle).
//
// A SegregationCube is the mutable build-side container; Seal() freezes it
// into a CubeView that owns a dense, coordinate-sorted cell array plus the
// secondary structures every read path needs:
//
//   - a coordinate -> cell-id map for point lookups,
//   - per-item SA/CA inverted lists (posting lists), so DICE-style
//     containment queries intersect sorted id lists instead of scanning,
//   - exact-coordinate slice groups (all cells sharing one SA or CA
//     itemset), so SLICE is a hash lookup returning a span,
//   - roll-up / drill-down adjacency lists in CSR form, so parent/child
//     navigation walks arrays with no per-call hashing,
//   - per-index ranked orders (defined cells by value descending), so
//     top-k queries walk a precomputed order instead of sorting per call,
//   - per-index analytic findings (cube/explorer.h, BuildFindings): every
//     SURPRISES candidate by delta descending and every REVERSALS
//     candidate under the default floors by gap descending, so SURPRISES
//     reads a prefix of a list and REVERSALS filters a short one instead
//     of evaluating every cell and sorting per call,
//   - each cell's six index texts (IndexTexts) and one label per distinct
//     SA and CA itemset, so result rows copy their numbers and labels
//     instead of formatting and sorting them per row.
//
// A CubeView is immutable after construction and therefore safe to share
// across threads without locks; the serving layer publishes
// shared_ptr<const CubeView> snapshots.

#ifndef SCUBE_CUBE_CUBE_VIEW_H_
#define SCUBE_CUBE_CUBE_VIEW_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cube/cell.h"
#include "indexes/segregation_index.h"
#include "relational/transactions.h"

namespace scube {
namespace cube {

/// \brief Immutable, indexed snapshot of a segregation cube.
class CubeView {
 public:
  /// Index into Cells(); stable for the lifetime of the view.
  using CellId = uint32_t;
  static constexpr CellId kNoCell = std::numeric_limits<CellId>::max();

  CubeView() = default;

  /// Builds the view from raw parts. `SegregationCube::Seal()` is the
  /// intended entry point; this constructor exists for it and for tests.
  /// Cells must have distinct coordinates (any order; they are sorted).
  /// `num_threads` parallelises index construction on the shared pool
  /// (1 = sequential, 0 = hardware concurrency); the finished view is
  /// identical for every value — the SA/CA posting builds, slice-group
  /// and label builds, per-cell parent probes and index texts, the six
  /// ranked sorts and the findings sorts run as independent tasks whose
  /// outputs depend only on the sorted cells.
  CubeView(relational::ItemCatalog catalog,
           std::vector<std::string> unit_labels,
           std::vector<CubeCell> cells, size_t num_threads = 1);

  const relational::ItemCatalog& catalog() const { return catalog_; }
  const std::vector<std::string>& unit_labels() const { return unit_labels_; }

  size_t NumCells() const { return cells_.size(); }
  size_t NumDefinedCells() const { return num_defined_; }

  /// All cells, sorted by coordinate. A stable span into the view — no
  /// allocation, no per-call sort.
  std::span<const CubeCell> Cells() const { return cells_; }

  /// Cell payload by id. Ids are ordinals into Cells(), so ascending id
  /// order is ascending coordinate order.
  const CubeCell& cell(CellId id) const { return cells_[id]; }

  /// The id of a cell of this view (a reference into Cells()).
  CellId IdOf(const CubeCell& cell) const {
    return static_cast<CellId>(&cell - cells_.data());
  }

  /// The cell's SA (resp. CA) label, as ItemCatalog::LabelSet renders its
  /// itemset; rendered once per distinct itemset at construction. Empty
  /// for an itemset with an item beyond the catalog (hand-built cubes).
  const std::string& SaLabel(CellId id) const {
    return sa_.labels[sa_.label_of[id]];
  }
  const std::string& CaLabel(CellId id) const {
    return ca_.labels[ca_.label_of[id]];
  }

  /// The cell's six index values as the result writers print them,
  /// rendered at construction. Lives as long as the view.
  const IndexTexts& Texts(CellId id) const { return texts_[id]; }

  /// Point lookups.
  CellId FindId(const CellCoordinates& coords) const;
  const CubeCell* Find(const CellCoordinates& coords) const;
  const CubeCell* Find(const fpm::Itemset& sa, const fpm::Itemset& ca) const;

  /// Posting lists: ids of cells whose SA (resp. CA) coordinate *contains*
  /// the item, ascending. Empty span for items absent from every cell.
  std::span<const CellId> SaPostings(fpm::ItemId item) const;
  std::span<const CellId> CaPostings(fpm::ItemId item) const;

  /// Exact-coordinate slices: ids of cells whose SA (resp. CA) coordinate
  /// *equals* the itemset, ascending (= coordinate order).
  std::span<const CellId> SliceBySa(const fpm::Itemset& sa) const;
  std::span<const CellId> SliceByCa(const fpm::Itemset& ca) const;

  /// Roll-up parents of an existing cell, in item-removal order: the parent
  /// without the first SA item, then without the second, and so on, then
  /// the same over the CA items (absent parents skipped).
  std::span<const CellId> Parents(CellId id) const;

  /// Drill-down children of an existing cell, in coordinate order.
  std::span<const CellId> Children(CellId id) const;

  /// Parents/children of arbitrary coordinates (present in the cube or
  /// not). Present cells use the precomputed adjacency; absent ones fall
  /// back to coordinate probes against the id map. Same orders as above.
  std::vector<CellId> ParentsOf(const CellCoordinates& coords) const;
  std::vector<CellId> ChildrenOf(const CellCoordinates& coords) const;

  /// Subcube selection: ids of cells whose SA contains every item of `sa`
  /// AND whose CA contains every item of `ca`, ascending. Intersects the
  /// posting lists of the constraint items (no constraints = all cells).
  /// When `examined` is non-null it receives the number of candidate ids
  /// inspected (the shortest posting list, or NumCells when unconstrained).
  std::vector<CellId> Dice(const fpm::Itemset& sa, const fpm::Itemset& ca,
                           uint64_t* examined = nullptr) const;

  /// Streaming subcube selection: `visit(id)` is invoked for each matching
  /// cell in ascending id order; returning false stops the intersection
  /// immediately (LIMIT pushdown). `tick()` is probed once per *candidate*
  /// examined — matching or not — and returning false aborts the walk
  /// (deadline pushdown; selective intersections can examine many
  /// candidates between matches). Returns false iff a callback stopped the
  /// walk early. `examined` receives the candidates inspected so far in
  /// either case (written at exit, not per candidate).
  ///
  /// Templated on the callables so the hot intersection loop pays no
  /// std::function dispatch per candidate; defined inline below.
  template <typename Visit, typename Tick>
  bool DiceVisit(const fpm::Itemset& sa, const fpm::Itemset& ca,
                 uint64_t* examined, Visit&& visit, Tick&& tick) const;

  template <typename Visit>
  bool DiceVisit(const fpm::Itemset& sa, const fpm::Itemset& ca,
                 uint64_t* examined, Visit&& visit) const {
    return DiceVisit(sa, ca, examined, std::forward<Visit>(visit),
                     [] { return true; });
  }

  /// Ids of *defined* cells ordered by the given index descending,
  /// coordinate-ascending on ties — the precomputed top-k order.
  std::span<const CellId> RankedByIndex(indexes::IndexKind kind) const;

  /// A REVERSALS candidate: the parent and the lowest and highest index
  /// among its usable children, which settle the test at any gap.
  struct ReversalEntry {
    CellId id = kNoCell;
    double lowest_child = 0.0;
    double highest_child = 0.0;
  };

  /// The explorer's findings of one index, built at construction
  /// (BuildFindings in cube/explorer.h defines them): SURPRISES candidates
  /// by (delta desc, id asc), and REVERSALS candidates under the default
  /// floors by (gap desc, id asc). Ghost cells are in neither list.
  std::span<const CellId> SurpriseOrder(indexes::IndexKind kind) const;
  std::span<const ReversalEntry> ReversalOrder(indexes::IndexKind kind) const;

  /// Per-index lists behind SurpriseOrder / ReversalOrder.
  struct Findings {
    std::array<std::vector<CellId>, indexes::kNumIndexKinds> surprises;
    std::array<std::vector<ReversalEntry>, indexes::kNumIndexKinds> reversals;
  };

  /// Human-readable cell label: "sex=F & age=young | region=north".
  std::string LabelOf(const CellCoordinates& coords) const;

  /// CSV export, one row per cell in coordinate order — the paper's
  /// cube.csv artifact: labels, T, M, units and the six indexes (empty
  /// for an undefined cell).
  std::string ToCsv() const;

 private:
  /// CSR adjacency / posting storage: ids_[offsets_[k] .. offsets_[k+1]).
  struct Csr {
    std::vector<uint32_t> offsets;
    std::vector<CellId> ids;
    std::span<const CellId> row(size_t k) const {
      if (k + 1 >= offsets.size()) return {};
      return std::span<const CellId>(ids).subspan(offsets[k],
                                                  offsets[k + 1] - offsets[k]);
    }
  };

  using SliceGroups =
      std::unordered_map<fpm::Itemset, std::vector<CellId>, fpm::ItemsetHash>;

  /// One coordinate axis: its exact-itemset slice groups and the label of
  /// each distinct itemset.
  struct Axis {
    SliceGroups groups;
    std::vector<std::string> labels;  ///< one per group
    std::vector<uint32_t> label_of;   ///< per cell: its itemset's label
  };

  void BuildPostings(bool sa_axis, Csr* csr);
  void BuildAxis(bool sa_axis, Axis* axis);
  void BuildAdjacency(size_t num_threads);
  void RenderTexts(size_t num_threads);
  void BuildRankedOrder(indexes::IndexKind kind,
                        const std::vector<CellId>& defined);

  /// One-item-removal parent probe, in the contract order (SA items
  /// ascending, then CA); shared by BuildAdjacency and ParentsOf.
  std::vector<CellId> ProbeParents(const CellCoordinates& coords) const;

  relational::ItemCatalog catalog_;
  std::vector<std::string> unit_labels_;
  std::vector<CubeCell> cells_;  ///< sorted by coordinate
  size_t num_defined_ = 0;
  size_t num_items_ = 0;  ///< posting-list universe: max item id + 1

  std::unordered_map<CellCoordinates, CellId, CellCoordinatesHash>
      id_by_coords_;

  Csr sa_postings_;
  Csr ca_postings_;
  Axis sa_;
  Axis ca_;
  std::vector<IndexTexts> texts_;  ///< per cell
  Csr parents_;
  Csr children_;
  std::array<std::vector<CellId>, indexes::kNumIndexKinds> ranked_;
  Findings findings_;
};

template <typename Visit, typename Tick>
bool CubeView::DiceVisit(const fpm::Itemset& sa, const fpm::Itemset& ca,
                         uint64_t* examined, Visit&& visit,
                         Tick&& tick) const {
  // `examined` is written only at the exit points, not per candidate —
  // the intersection loop is hot.
  uint64_t seen = 0;
  auto done = [&seen, examined](bool completed) {
    if (examined != nullptr) *examined = seen;
    return completed;
  };

  std::vector<std::span<const CellId>> lists;
  lists.reserve(sa.size() + ca.size());
  for (fpm::ItemId item : sa.items()) lists.push_back(SaPostings(item));
  for (fpm::ItemId item : ca.items()) lists.push_back(CaPostings(item));

  if (lists.empty()) {
    // No constraints: every cell matches, in id order.
    for (size_t i = 0; i < cells_.size(); ++i) {
      ++seen;
      if (!tick()) return done(false);
      if (!visit(static_cast<CellId>(i))) return done(false);
    }
    return done(true);
  }

  // Drive the intersection from the shortest posting list; membership in
  // the others is a binary search over sorted ids.
  size_t shortest = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i].size() < lists[shortest].size()) shortest = i;
  }
  for (CellId id : lists[shortest]) {
    ++seen;
    if (!tick()) return done(false);
    bool in_all = true;
    for (size_t i = 0; i < lists.size() && in_all; ++i) {
      if (i == shortest) continue;
      in_all = std::binary_search(lists[i].begin(), lists[i].end(), id);
    }
    if (in_all && !visit(id)) return done(false);
  }
  return done(true);
}

}  // namespace cube
}  // namespace scube

#endif  // SCUBE_CUBE_CUBE_VIEW_H_
