// Explorer: exploratory-analysis queries over a sealed cube — the
// "discovery" part of segregation discovery (top-k contexts, drill-down
// surprise, Simpson-style granularity reversals).
//
// All queries run against an immutable CubeView. Top-k walks the view's
// precomputed ranked order. SURPRISES and REVERSALS walk the view's
// per-index findings lists, which BuildFindings fills once when the view
// is constructed: each list holds every candidate of one index in answer
// order, so SURPRISES reads a prefix of it and REVERSALS filters it,
// instead of evaluating every cell and sorting. Inputs a list cannot
// answer exactly fall back to evaluating every cell. VisitSurprises/VisitReversals are the one
// implementation: the collectors below and the SCubeQL executor both
// stream them, so the explorer and every server answer agree.

#ifndef SCUBE_CUBE_EXPLORER_H_
#define SCUBE_CUBE_EXPLORER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cube/cube_view.h"

namespace scube {
namespace cube {

/// \brief Filters for exploration queries.
struct ExplorerOptions {
  /// Only cells whose context population T is at least this.
  uint64_t min_context_size = 30;

  /// Only cells whose minority population M is at least this.
  uint64_t min_minority_size = 5;
};

/// True iff the cell carries a segregation reading under the filters:
/// defined indexes, the T/M floors and a non-⋆ subgroup. Pure-context
/// cells carry no segregation reading, so they are never findings, and
/// never comparison baselines either (roll-up parents in
/// DrillDownSurprises, drill-down children in FindGranularityReversals),
/// even in a hand-built cube that flags one defined.
/// The per-cell screen every exploration query applies; exported so other
/// layers (e.g. the SCubeQL executor) cannot drift from it.
bool PassesExplorerFilters(const CubeCell& cell,
                           const ExplorerOptions& options);

/// \brief A ranked finding.
struct RankedCell {
  const CubeCell* cell = nullptr;
  double value = 0.0;
};

/// Top-k cells by the given index, descending, among defined cells passing
/// the filters. Walks the view's precomputed ranked order, so the cost is
/// O(k + cells filtered out before the k-th hit), not a fresh sort.
std::vector<RankedCell> TopSegregatedContexts(
    const CubeView& view, indexes::IndexKind kind, size_t k,
    const ExplorerOptions& options = ExplorerOptions());

/// \brief A drill-down surprise: a cell whose index deviates strongly from
/// every roll-up parent.
struct SurpriseFinding {
  const CubeCell* cell = nullptr;
  double value = 0.0;
  double best_parent_value = 0.0;  ///< max index among parents
  double delta = 0.0;              ///< value - best_parent_value
};

/// The surprise reading of one cell before any threshold or T/M floor:
/// nullopt when the cell is undefined, has no subgroup, or has no usable
/// roll-up parent. `best_parent_value` is the largest index among the
/// usable parents, floored at 0.0. The parent walk uses the view's
/// precomputed adjacency — no hashing.
std::optional<SurpriseFinding> SurpriseOf(const CubeView& view,
                                          CubeView::CellId id,
                                          indexes::IndexKind kind);

/// Sorts findings by delta descending (coordinate order on ties) — the
/// order DrillDownSurprises returns.
void SortSurprises(std::vector<SurpriseFinding>* findings);

/// \brief A Simpson-style granularity reversal: a parent cell that looks
/// integrated while every refinement of it along one attribute looks
/// segregated (or vice versa).
struct GranularityReversal {
  const CubeCell* parent = nullptr;
  std::vector<const CubeCell*> children;
  double parent_value = 0.0;
  double min_child_value = 0.0;  ///< the boundary child: min, or max if lower
  bool children_higher = true;   ///< all children above parent (masking)
};

/// The distance from the parent to its boundary child, on the children's
/// side: the key reversals are ranked by.
double ReversalGap(const GranularityReversal& reversal);

/// Evaluates one cell of the view as a reversal parent: nullopt when it
/// fails the filters, has fewer than two usable CA-children, or any child
/// sits within `min_gap` on the parent's side. Children come from the
/// view's adjacency lists.
std::optional<GranularityReversal> EvaluateReversal(
    const CubeView& view, CubeView::CellId id, indexes::IndexKind kind,
    double min_gap, const ExplorerOptions& options);

/// EvaluateReversal for an entry of the view's REVERSALS list, at a
/// `min_gap` and filters the list serves (ReversalListServes): the entry's
/// child range settles the test, so only a passing parent's children are
/// walked again.
std::optional<GranularityReversal> EvaluateListedReversal(
    const CubeView& view, const CubeView::ReversalEntry& entry,
    indexes::IndexKind kind, double min_gap, const ExplorerOptions& options);

/// Sorts reversals by gap descending (coordinate order on ties) — the
/// order FindGranularityReversals returns.
void SortReversals(std::vector<GranularityReversal>* reversals);

/// True when the view's REVERSALS list answers a query exactly: the
/// default filters, which decide which children count, and `min_gap` >= 0
/// (a negative gap, or NaN, can change which direction wins).
bool ReversalListServes(double min_gap, const ExplorerOptions& options);

/// The view's findings lists (CubeView::SurpriseOrder/ReversalOrder), from
/// its cells and adjacency. Per index, over the non-ghost cells:
///   - surprises: every cell with a surprise reading under the default
///     filters but no T/M floor (SurpriseOf), by (delta desc, id asc);
///   - reversals: every parent under the default filters whose usable
///     CA-children (two or more) are all >= or all <= it, by (ReversalGap
///     desc, id asc).
/// Ids ascend in coordinate order, so these are the SortSurprises and
/// SortReversals orders. One pass over the cells, then one sort task per
/// index on the shared pool (`num_threads` as in Seal). CubeView's
/// constructor calls this once its adjacency is built.
CubeView::Findings BuildFindings(const CubeView& view, size_t num_threads);

/// Visits the cells whose index exceeds every usable roll-up parent by at
/// least `min_delta`, in (delta desc, coordinate asc) order, calling
/// `visit(finding)` until it returns false. Walks the view's SURPRISES
/// list: the T/M floors filter it and the first delta below `min_delta`
/// ends it. Ghost cells are never findings. `tick()` is probed once per candidate inspected; returning
/// false aborts. Returns false iff a callback stopped the walk;
/// `inspected` (if non-null) receives the candidates inspected.
template <typename Visit, typename Tick>
bool VisitSurprises(const CubeView& view, indexes::IndexKind kind,
                    double min_delta, const ExplorerOptions& options,
                    uint64_t* inspected, Visit&& visit, Tick&& tick);

/// Visits the reversal parents of `kind` at `min_gap`, in (gap desc,
/// coordinate asc) order, calling `visit(reversal)` until it returns false.
/// When ReversalListServes, walks the view's REVERSALS list and applies
/// EvaluateReversal's exact test to each entry (EvaluateListedReversal);
/// otherwise evaluates every cell and sorts. Ghosts, `tick`, the result and `inspected` as in
/// VisitSurprises.
template <typename Visit, typename Tick>
bool VisitReversals(const CubeView& view, indexes::IndexKind kind,
                    double min_gap, const ExplorerOptions& options,
                    uint64_t* inspected, Visit&& visit, Tick&& tick);

/// Cells whose index exceeds all their parents by at least `min_delta`
/// (sorted by delta, descending). These are the contexts an analyst would
/// miss at coarser granularity.
std::vector<SurpriseFinding> DrillDownSurprises(
    const CubeView& view, indexes::IndexKind kind, double min_delta,
    const ExplorerOptions& options = ExplorerOptions());

/// Finds parents whose every child (>= 2 children, same SA, CA extended by
/// one item) sits on the other side of the parent by at least `min_gap`.
std::vector<GranularityReversal> FindGranularityReversals(
    const CubeView& view, indexes::IndexKind kind, double min_gap,
    const ExplorerOptions& options = ExplorerOptions());

template <typename Visit, typename Tick>
bool VisitSurprises(const CubeView& view, indexes::IndexKind kind,
                    double min_delta, const ExplorerOptions& options,
                    uint64_t* inspected, Visit&& visit, Tick&& tick) {
  uint64_t seen = 0;
  auto done = [&seen, inspected](bool completed) {
    if (inspected != nullptr) *inspected = seen;
    return completed;
  };
  for (CubeView::CellId id : view.SurpriseOrder(kind)) {
    ++seen;
    if (!tick()) return done(false);
    std::optional<SurpriseFinding> finding = SurpriseOf(view, id, kind);
    if (!finding) continue;
    if (finding->delta < min_delta) break;  // every later delta is lower
    if (!PassesExplorerFilters(*finding->cell, options)) continue;
    if (!visit(*finding)) return done(false);
  }
  return done(true);
}

template <typename Visit, typename Tick>
bool VisitReversals(const CubeView& view, indexes::IndexKind kind,
                    double min_gap, const ExplorerOptions& options,
                    uint64_t* inspected, Visit&& visit, Tick&& tick) {
  uint64_t seen = 0;
  auto done = [&seen, inspected](bool completed) {
    if (inspected != nullptr) *inspected = seen;
    return completed;
  };
  if (ReversalListServes(min_gap, options)) {
    for (const CubeView::ReversalEntry& entry : view.ReversalOrder(kind)) {
      ++seen;
      if (!tick()) return done(false);
      std::optional<GranularityReversal> reversal =
          EvaluateListedReversal(view, entry, kind, min_gap, options);
      if (reversal && !visit(std::move(*reversal))) return done(false);
    }
    return done(true);
  }
  std::vector<GranularityReversal> reversals;
  for (CubeView::CellId id = 0; id < view.NumCells(); ++id) {
    ++seen;
    if (!tick()) return done(false);
    if (view.cell(id).ghost) continue;
    if (auto reversal = EvaluateReversal(view, id, kind, min_gap, options)) {
      reversals.push_back(std::move(*reversal));
    }
  }
  SortReversals(&reversals);
  for (GranularityReversal& reversal : reversals) {
    if (!visit(std::move(reversal))) return done(false);
  }
  return done(true);
}

}  // namespace cube
}  // namespace scube

#endif  // SCUBE_CUBE_EXPLORER_H_
