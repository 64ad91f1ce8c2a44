#include "cube/explorer.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/thread_pool.h"

namespace scube {
namespace cube {

bool PassesExplorerFilters(const CubeCell& cell,
                           const ExplorerOptions& options) {
  if (!cell.indexes.defined) return false;
  if (cell.context_size < options.min_context_size) return false;
  if (cell.minority_size < options.min_minority_size) return false;
  return !cell.coords.sa.empty();
}

namespace {

// Screen for cells used as comparison baselines (roll-up parents, drill-down
// children): their index values are read, so they must carry a segregation
// reading themselves. Cube-builder cubes leave pure-context cells undefined
// (M = T), but hand-built cubes can Insert() a pure-context cell flagged
// defined — without the subgroup check such a cell would leak in as a
// baseline that TopSegregatedContexts correctly filters out.
bool UsableAsComparison(const CubeCell& cell) {
  return cell.indexes.defined && !cell.coords.sa.empty();
}

/// Calls fn(parent) for each usable roll-up parent of `id`, in adjacency
/// order.
template <typename Fn>
void ForUsableParents(const CubeView& view, CubeView::CellId id, Fn&& fn) {
  for (CubeView::CellId parent_id : view.Parents(id)) {
    const CubeCell& parent = view.cell(parent_id);
    if (UsableAsComparison(parent)) fn(parent);
  }
}

/// CA-children only: same subgroup, context refined by one item, passing
/// the comparison screen and the floors. The adjacency list is
/// coordinate-sorted, so the children keep that order.
std::vector<const CubeCell*> UsableChildren(const CubeView& view,
                                            CubeView::CellId id,
                                            const ExplorerOptions& options) {
  const CubeCell& parent = view.cell(id);
  std::vector<const CubeCell*> children;
  for (CubeView::CellId child_id : view.Children(id)) {
    const CubeCell& child = view.cell(child_id);
    if (child.coords.sa == parent.coords.sa &&
        UsableAsComparison(child) &&
        child.context_size >= options.min_context_size &&
        child.minority_size >= options.min_minority_size) {
      children.push_back(&child);
    }
  }
  return children;
}

/// The lowest and highest index among a parent's children.
std::pair<double, double> ChildRange(
    const std::vector<const CubeCell*>& children, indexes::IndexKind kind) {
  double lowest = 1e300, highest = -1e300;
  for (const CubeCell* child : children) {
    lowest = std::min(lowest, child->Value(kind));
    highest = std::max(highest, child->Value(kind));
  }
  return {lowest, highest};
}

/// Which side of the parent every child sits on by at least `min_gap`:
/// {true, lowest} when all are >= parent + min_gap (masking), else
/// {false, highest} when all are <= parent - min_gap, else nullopt. Every
/// child is >= a bound iff the lowest is, so the range decides.
std::optional<std::pair<bool, double>> ChildrenSide(double lowest,
                                                    double highest,
                                                    double parent_value,
                                                    double min_gap) {
  if (!(lowest < parent_value + min_gap)) return std::make_pair(true, lowest);
  if (!(highest > parent_value - min_gap)) {
    return std::make_pair(false, highest);
  }
  return std::nullopt;
}

CubeView::CellId IdOf(CubeView::CellId id) { return id; }
CubeView::CellId IdOf(const CubeView::ReversalEntry& entry) {
  return entry.id;
}

/// Sorts (sort key, entry) pairs by key descending, id ascending — the
/// findings order — and returns the entries.
template <typename Entry>
std::vector<Entry> SortedByKey(std::vector<std::pair<double, Entry>>* keyed) {
  std::sort(keyed->begin(), keyed->end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return IdOf(a.second) < IdOf(b.second);  // id order == coordinate order
  });
  std::vector<Entry> entries;
  entries.reserve(keyed->size());
  for (const auto& [key, entry] : *keyed) entries.push_back(entry);
  std::vector<std::pair<double, Entry>>().swap(*keyed);
  return entries;
}

}  // namespace

std::vector<RankedCell> TopSegregatedContexts(const CubeView& view,
                                              indexes::IndexKind kind,
                                              size_t k,
                                              const ExplorerOptions& options) {
  std::vector<RankedCell> ranked;
  if (k == 0) return ranked;
  // The ranked order is pre-sorted by (value desc, coordinate asc);
  // filtering preserves it, so the first k survivors are the answer.
  for (CubeView::CellId id : view.RankedByIndex(kind)) {
    const CubeCell& cell = view.cell(id);
    if (!PassesExplorerFilters(cell, options)) continue;
    ranked.push_back(RankedCell{&cell, cell.Value(kind)});
    if (ranked.size() == k) break;
  }
  return ranked;
}

std::optional<SurpriseFinding> SurpriseOf(const CubeView& view,
                                          CubeView::CellId id,
                                          indexes::IndexKind kind) {
  const CubeCell& cell = view.cell(id);
  if (!UsableAsComparison(cell)) return std::nullopt;
  double best_parent = 0.0;
  bool any_usable_parent = false;
  ForUsableParents(view, id, [&](const CubeCell& parent) {
    any_usable_parent = true;
    best_parent = std::max(best_parent, parent.Value(kind));
  });
  if (!any_usable_parent) return std::nullopt;
  return SurpriseFinding{&cell, cell.Value(kind), best_parent,
                         cell.Value(kind) - best_parent};
}

void SortSurprises(std::vector<SurpriseFinding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const SurpriseFinding& a, const SurpriseFinding& b) {
              if (a.delta != b.delta) return a.delta > b.delta;
              return a.cell->coords < b.cell->coords;
            });
}

double ReversalGap(const GranularityReversal& reversal) {
  return reversal.children_higher
             ? reversal.min_child_value - reversal.parent_value
             : reversal.parent_value - reversal.min_child_value;
}

std::optional<GranularityReversal> EvaluateReversal(
    const CubeView& view, CubeView::CellId id, indexes::IndexKind kind,
    double min_gap, const ExplorerOptions& options) {
  const CubeCell& parent = view.cell(id);
  if (!PassesExplorerFilters(parent, options)) return std::nullopt;
  std::vector<const CubeCell*> children = UsableChildren(view, id, options);
  if (children.size() < 2) return std::nullopt;
  const double parent_value = parent.Value(kind);
  const auto [lowest, highest] = ChildRange(children, kind);
  auto side = ChildrenSide(lowest, highest, parent_value, min_gap);
  if (!side) return std::nullopt;
  return GranularityReversal{&parent, std::move(children), parent_value,
                             side->second, side->first};
}

std::optional<GranularityReversal> EvaluateListedReversal(
    const CubeView& view, const CubeView::ReversalEntry& entry,
    indexes::IndexKind kind, double min_gap, const ExplorerOptions& options) {
  const double parent_value = view.cell(entry.id).Value(kind);
  if (!ChildrenSide(entry.lowest_child, entry.highest_child, parent_value,
                    min_gap)) {
    return std::nullopt;
  }
  return EvaluateReversal(view, entry.id, kind, min_gap, options);
}

void SortReversals(std::vector<GranularityReversal>* reversals) {
  std::sort(reversals->begin(), reversals->end(),
            [](const GranularityReversal& a, const GranularityReversal& b) {
              double ga = ReversalGap(a), gb = ReversalGap(b);
              if (ga != gb) return ga > gb;
              return a.parent->coords < b.parent->coords;
            });
}

bool ReversalListServes(double min_gap, const ExplorerOptions& options) {
  const ExplorerOptions defaults;
  return min_gap >= 0 &&
         options.min_context_size == defaults.min_context_size &&
         options.min_minority_size == defaults.min_minority_size;
}

// Why the REVERSALS list answers every MINGAP g >= 0: the list is the
// answer at g = 0. A parent passes at g when all children are >= parent +
// g, or all <= parent - g (each sum rounded). Rounding is monotone, so
// both bounds lie on the parent's far side of it, and the parent is in the
// list. Its direction and gap there are the ones EvaluateReversal reports
// at g, except when every child equals the parent, where both readings
// have gap +0.0. So the passing parents keep the list's (gap desc, id asc)
// order.
CubeView::Findings BuildFindings(const CubeView& view, size_t num_threads) {
  constexpr size_t kKinds = indexes::kNumIndexKinds;
  using Entry = CubeView::ReversalEntry;
  const ExplorerOptions defaults;
  std::array<std::vector<std::pair<double, CubeView::CellId>>, kKinds>
      surprises;
  std::array<std::vector<std::pair<double, Entry>>, kKinds> reversals;
  for (CubeView::CellId id = 0; id < view.NumCells(); ++id) {
    const CubeCell& cell = view.cell(id);
    // A usable cell has a subgroup, so it is not the root.
    if (cell.ghost || !UsableAsComparison(cell)) continue;

    // SURPRISES: SurpriseOf's reading, for every index from one parent walk.
    std::array<double, kKinds> best_parent{};
    bool any_usable_parent = false;
    ForUsableParents(view, id, [&](const CubeCell& parent) {
      any_usable_parent = true;
      for (size_t k = 0; k < kKinds; ++k) {
        best_parent[k] = std::max(best_parent[k], parent.indexes.values[k]);
      }
    });
    if (any_usable_parent) {
      for (size_t k = 0; k < kKinds; ++k) {
        surprises[k].emplace_back(cell.indexes.values[k] - best_parent[k], id);
      }
    }

    // REVERSALS: EvaluateReversal at gap 0 under the default filters.
    if (!PassesExplorerFilters(cell, defaults)) continue;
    std::vector<const CubeCell*> children = UsableChildren(view, id, defaults);
    if (children.size() < 2) continue;
    for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
      const double parent_value = cell.Value(kind);
      const auto [lowest, highest] = ChildRange(children, kind);
      if (auto side = ChildrenSide(lowest, highest, parent_value, 0.0)) {
        GranularityReversal at_zero{&cell, {}, parent_value, side->second,
                                    side->first};
        reversals[static_cast<size_t>(kind)].emplace_back(
            ReversalGap(at_zero), Entry{id, lowest, highest});
      }
    }
  }

  CubeView::Findings findings;
  ThreadPool::ParallelForShared(
      kKinds, num_threads, [&](size_t /*worker*/, size_t k) {
        findings.surprises[k] = SortedByKey(&surprises[k]);
        findings.reversals[k] = SortedByKey(&reversals[k]);
      });
  return findings;
}

std::vector<SurpriseFinding> DrillDownSurprises(
    const CubeView& view, indexes::IndexKind kind, double min_delta,
    const ExplorerOptions& options) {
  std::vector<SurpriseFinding> out;
  VisitSurprises(
      view, kind, min_delta, options, nullptr,
      [&out](const SurpriseFinding& finding) {
        out.push_back(finding);
        return true;
      },
      [] { return true; });
  return out;
}

std::vector<GranularityReversal> FindGranularityReversals(
    const CubeView& view, indexes::IndexKind kind, double min_gap,
    const ExplorerOptions& options) {
  std::vector<GranularityReversal> out;
  VisitReversals(
      view, kind, min_gap, options, nullptr,
      [&out](GranularityReversal&& reversal) {
        out.push_back(std::move(reversal));
        return true;
      },
      [] { return true; });
  return out;
}

}  // namespace cube
}  // namespace scube
