// Explorer: exploratory-analysis queries over a sealed cube — the
// "discovery" part of segregation discovery (top-k contexts, drill-down
// surprise, Simpson-style granularity reversals).
//
// All queries run against an immutable CubeView: top-k walks the view's
// precomputed ranked order, surprises and reversals walk its parent/child
// adjacency lists. The per-cell evaluators are exported so the SCubeQL
// executor's analytic scan evaluates SURPRISES and REVERSALS exactly as
// the explorer does.

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

  /// Only cells with a non-⋆ minority subgroup (pure-context cells carry no
  /// segregation reading). Also screens the comparison cells — roll-up
  /// parents in DrillDownSurprises, drill-down children in
  /// FindGranularityReversals — so a hand-built cube with a defined
  /// pure-context cell cannot leak one in as a baseline.
  bool require_nonempty_sa = true;
};

/// True iff the cell carries a segregation reading under the filters:
/// defined indexes, the T/M floors, and (when required) a non-⋆ subgroup.
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

/// Evaluates one cell of the view as a surprise candidate: nullopt when the
/// cell fails the filters, is the root, has no usable parent, or sits
/// within `min_delta` of its best parent. The parent walk uses the view's
/// precomputed adjacency — no hashing.
std::optional<SurpriseFinding> EvaluateSurprise(const CubeView& view,
                                                CubeView::CellId id,
                                                indexes::IndexKind kind,
                                                double min_delta,
                                                const ExplorerOptions& options);

/// Sorts findings by delta descending (coordinate order on ties) — the
/// order DrillDownSurprises returns.
void SortSurprises(std::vector<SurpriseFinding>* findings);

/// Cells whose index exceeds all their parents by at least `min_delta`
/// (sorted by delta, descending). These are the contexts an analyst would
/// miss at coarser granularity.
std::vector<SurpriseFinding> DrillDownSurprises(
    const CubeView& view, indexes::IndexKind kind, double min_delta,
    const ExplorerOptions& options = ExplorerOptions());

/// \brief A Simpson-style granularity reversal: a parent cell that looks
/// integrated while every refinement of it along one attribute looks
/// segregated (or vice versa).
struct GranularityReversal {
  const CubeCell* parent = nullptr;
  std::vector<const CubeCell*> children;
  double parent_value = 0.0;
  double min_child_value = 0.0;
  bool children_higher = true;  ///< all children above parent (masking)
};

/// Evaluates one cell of the view as a reversal parent: nullopt when it
/// fails the filters, has fewer than two usable CA-children, or any child
/// sits within `min_gap` on the parent's side. Children come from the
/// view's adjacency lists.
std::optional<GranularityReversal> EvaluateReversal(
    const CubeView& view, CubeView::CellId id, indexes::IndexKind kind,
    double min_gap, const ExplorerOptions& options);

/// Sorts reversals by gap descending (coordinate order on ties) — the
/// order FindGranularityReversals returns.
void SortReversals(std::vector<GranularityReversal>* reversals);

/// Finds parents whose every child (>= 2 children, same SA, CA extended by
/// one item) sits on the other side of the parent by at least `min_gap`.
std::vector<GranularityReversal> FindGranularityReversals(
    const CubeView& view, indexes::IndexKind kind, double min_gap,
    const ExplorerOptions& options = ExplorerOptions());

}  // namespace cube
}  // namespace scube

#endif  // SCUBE_CUBE_EXPLORER_H_
