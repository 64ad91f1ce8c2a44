// Property sweep: on randomized cubes — including pure-context and
// undefined cells — the sealed CubeView's indexes (point lookups, slices,
// posting-list dice, parent/child adjacency, ranked top-k) and the
// explorer's analyses over the view must agree exactly with naive
// recomputation over the generated cells (the O(all cells) reference
// functions below).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/random.h"
#include "cube/cube.h"
#include "cube/cube_view.h"
#include "cube/explorer.h"
#include "oracles/cell_coordinates_hash.h"

namespace scube {
namespace cube {
namespace {

constexpr size_t kNumSaItems = 4;   // ids 0..3 on the SA axis
constexpr size_t kNumCaItems = 3;   // ids 4..6 on the CA axis

struct SweepParams {
  uint64_t seed;
  size_t target_cells;
};

fpm::Itemset RandomSubset(Rng* rng, fpm::ItemId first, size_t universe,
                          size_t max_size) {
  std::vector<fpm::ItemId> items;
  size_t size = rng->NextBounded(max_size + 1);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(first + static_cast<fpm::ItemId>(
                                rng->NextBounded(universe)));
  }
  return fpm::Itemset(std::move(items));  // dedupes
}

relational::ItemCatalog SweepCatalog() {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  for (size_t i = 0; i < kNumSaItems; ++i) {
    catalog.GetOrAdd(i, "sa" + std::to_string(i), "v",
                     AttributeKind::kSegregation);
  }
  for (size_t i = 0; i < kNumCaItems; ++i) {
    catalog.GetOrAdd(kNumSaItems + i, "ca" + std::to_string(i), "v",
                     AttributeKind::kContext);
  }
  return catalog;
}

/// The generated cells by coordinate.
using CellMap =
    std::unordered_map<CellCoordinates, CubeCell, CellCoordinatesHash>;

CellMap RandomCells(const SweepParams& p, Rng* rng) {
  CellMap cells;
  for (size_t i = 0; i < p.target_cells; ++i) {
    CubeCell cell;
    // Pure-context (empty SA) and root coordinates arise naturally.
    cell.coords = CellCoordinates{RandomSubset(rng, 0, kNumSaItems, 3),
                                  RandomSubset(rng, kNumSaItems,
                                               kNumCaItems, 2)};
    cell.context_size = 1 + rng->NextBounded(200);
    cell.minority_size = rng->NextBounded(cell.context_size + 1);
    cell.num_units = 1 + static_cast<uint32_t>(rng->NextBounded(3));
    // ~20% undefined cells (degenerate minorities).
    cell.indexes.defined = !rng->NextBool(0.2);
    for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
      cell.indexes.values[static_cast<size_t>(kind)] = rng->NextDouble();
    }
    CellCoordinates key = cell.coords;
    cells[key] = std::move(cell);  // duplicate coordinates overwrite
  }
  return cells;
}

// The naive reference implementations: each read scans or probes every
// generated cell and sorts per call, with no index.

const CubeCell* Find(const CellMap& cells, const CellCoordinates& coords) {
  auto it = cells.find(coords);
  return it == cells.end() ? nullptr : &it->second;
}

/// The cells whose coordinates pass `keep`, in coordinate order.
template <typename Keep>
std::vector<const CubeCell*> SortedCells(const CellMap& cells, Keep keep) {
  std::vector<const CubeCell*> out;
  for (const auto& [coords, cell] : cells) {
    if (keep(coords)) out.push_back(&cell);
  }
  std::sort(out.begin(), out.end(), [](const CubeCell* a, const CubeCell* b) {
    return a->coords < b->coords;
  });
  return out;
}

std::vector<const CubeCell*> Cells(const CellMap& cells) {
  return SortedCells(cells, [](const CellCoordinates&) { return true; });
}

/// Cells with the exact SA (resp. CA) coordinates.
std::vector<const CubeCell*> SliceBySa(const CellMap& cells,
                                       const fpm::Itemset& sa) {
  return SortedCells(
      cells, [&sa](const CellCoordinates& key) { return key.sa == sa; });
}

std::vector<const CubeCell*> SliceByCa(const CellMap& cells,
                                       const fpm::Itemset& ca) {
  return SortedCells(
      cells, [&ca](const CellCoordinates& key) { return key.ca == ca; });
}

/// Roll-up parents: remove one SA item, items ascending, then one CA item;
/// present cells only.
std::vector<const CubeCell*> Parents(const CellMap& cells,
                                     const CellCoordinates& coords) {
  std::vector<const CubeCell*> out;
  for (fpm::ItemId item : coords.sa.items()) {
    fpm::Itemset reduced = coords.sa.Minus(fpm::Itemset({item}));
    if (const CubeCell* cell = Find(cells, {reduced, coords.ca})) {
      out.push_back(cell);
    }
  }
  for (fpm::ItemId item : coords.ca.items()) {
    fpm::Itemset reduced = coords.ca.Minus(fpm::Itemset({item}));
    if (const CubeCell* cell = Find(cells, {coords.sa, reduced})) {
      out.push_back(cell);
    }
  }
  return out;
}

/// Drill-down children: cells whose coordinates extend `coords` by exactly
/// one item on either axis.
std::vector<const CubeCell*> Children(const CellMap& cells,
                                      const CellCoordinates& coords) {
  return SortedCells(cells, [&coords](const CellCoordinates& key) {
    bool sa_child = coords.sa.size() + 1 == key.sa.size() &&
                    coords.ca == key.ca && coords.sa.IsSubsetOf(key.sa);
    bool ca_child = coords.ca.size() + 1 == key.ca.size() &&
                    coords.sa == key.sa && coords.ca.IsSubsetOf(key.ca);
    return sa_child || ca_child;
  });
}

std::vector<const CubeCell*> IdsToCells(const CubeView& view,
                                        std::span<const CubeView::CellId> ids) {
  std::vector<const CubeCell*> out;
  for (CubeView::CellId id : ids) out.push_back(&view.cell(id));
  return out;
}

void ExpectSameCells(const std::vector<const CubeCell*>& naive,
                     const std::vector<const CubeCell*>& indexed,
                     const std::string& what) {
  ASSERT_EQ(naive.size(), indexed.size()) << what;
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive[i]->coords, indexed[i]->coords) << what << " at " << i;
    EXPECT_EQ(naive[i]->context_size, indexed[i]->context_size) << what;
  }
}

class CubeViewPropertyTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(CubeViewPropertyTest, ViewAgreesWithNaiveCube) {
  Rng rng(GetParam().seed);
  const CellMap cells = RandomCells(GetParam(), &rng);
  SegregationCube cube(SweepCatalog(), {"u0", "u1", "u2"});
  for (const auto& [coords, cell] : cells) cube.Insert(cell);
  CubeView view = SegregationCube(cube).Seal();

  // --- dense array vs naive sorted pointer dump ---------------------------
  auto naive_cells = Cells(cells);
  ASSERT_EQ(view.NumCells(), naive_cells.size());
  EXPECT_EQ(view.NumDefinedCells(), cube.NumDefinedCells());
  for (size_t i = 0; i < naive_cells.size(); ++i) {
    EXPECT_EQ(view.Cells()[i].coords, naive_cells[i]->coords);
  }

  // --- point lookups ------------------------------------------------------
  for (const CubeCell* cell : naive_cells) {
    const CubeCell* found = view.Find(cell->coords);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->coords, cell->coords);
    EXPECT_EQ(found->minority_size, cell->minority_size);
  }
  const CellCoordinates absent{fpm::Itemset({0, 1, 2, 3}),
                               fpm::Itemset({4, 5, 6})};
  EXPECT_EQ(view.Find(absent), Find(cells, absent));

  // --- exact slices vs naive scans ---------------------------------------
  std::set<fpm::Itemset> sa_keys, ca_keys;
  for (const CubeCell* cell : naive_cells) {
    sa_keys.insert(cell->coords.sa);
    ca_keys.insert(cell->coords.ca);
  }
  for (const fpm::Itemset& sa : sa_keys) {
    ExpectSameCells(SliceBySa(cells, sa),
                    IdsToCells(view, view.SliceBySa(sa)),
                    "SliceBySa " + sa.DebugString());
  }
  for (const fpm::Itemset& ca : ca_keys) {
    ExpectSameCells(SliceByCa(cells, ca),
                    IdsToCells(view, view.SliceByCa(ca)),
                    "SliceByCa " + ca.DebugString());
  }

  // --- adjacency vs naive coordinate algebra ------------------------------
  for (const CubeCell* cell : naive_cells) {
    CubeView::CellId id = view.FindId(cell->coords);
    ASSERT_NE(id, CubeView::kNoCell);
    ExpectSameCells(Parents(cells, cell->coords),
                    IdsToCells(view, view.Parents(id)), "Parents");
    ExpectSameCells(Children(cells, cell->coords),
                    IdsToCells(view, view.Children(id)), "Children");
  }
  // Absent coordinates fall back to probes and must agree too.
  for (int trial = 0; trial < 20; ++trial) {
    CellCoordinates coords{RandomSubset(&rng, 0, kNumSaItems, 3),
                           RandomSubset(&rng, kNumSaItems, kNumCaItems, 2)};
    std::vector<CubeView::CellId> p = view.ParentsOf(coords);
    ExpectSameCells(Parents(cells, coords),
                    IdsToCells(view, std::span<const CubeView::CellId>(p)),
                    "ParentsOf");
    std::vector<CubeView::CellId> c = view.ChildrenOf(coords);
    ExpectSameCells(Children(cells, coords),
                    IdsToCells(view, std::span<const CubeView::CellId>(c)),
                    "ChildrenOf");
  }

  // --- dice vs naive subset filtering -------------------------------------
  for (int trial = 0; trial < 20; ++trial) {
    fpm::Itemset sa = RandomSubset(&rng, 0, kNumSaItems, 2);
    fpm::Itemset ca = RandomSubset(&rng, kNumSaItems, kNumCaItems, 2);
    std::vector<const CubeCell*> naive;
    for (const CubeCell* cell : naive_cells) {
      if (sa.IsSubsetOf(cell->coords.sa) && ca.IsSubsetOf(cell->coords.ca)) {
        naive.push_back(cell);
      }
    }
    std::vector<CubeView::CellId> ids = view.Dice(sa, ca);
    ExpectSameCells(naive,
                    IdsToCells(view, std::span<const CubeView::CellId>(ids)),
                    "Dice " + sa.DebugString() + ca.DebugString());
  }

  // --- explorer analyses vs naive recomputation ---------------------------
  ExplorerOptions options;
  options.min_context_size = 10;
  options.min_minority_size = 2;
  for (indexes::IndexKind kind :
       {indexes::IndexKind::kDissimilarity, indexes::IndexKind::kGini}) {
    // Top-k: naive = filter + full sort + truncate over the cells.
    std::vector<RankedCell> naive_top;
    for (const CubeCell* cell : naive_cells) {
      if (!PassesExplorerFilters(*cell, options)) continue;
      naive_top.push_back(RankedCell{cell, cell->Value(kind)});
    }
    std::sort(naive_top.begin(), naive_top.end(),
              [](const RankedCell& a, const RankedCell& b) {
                if (a.value != b.value) return a.value > b.value;
                return a.cell->coords < b.cell->coords;
              });
    if (naive_top.size() > 5) naive_top.resize(5);
    auto top = TopSegregatedContexts(view, kind, 5, options);
    ASSERT_EQ(top.size(), naive_top.size());
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].cell->coords, naive_top[i].cell->coords) << i;
      EXPECT_DOUBLE_EQ(top[i].value, naive_top[i].value) << i;
    }

    // Surprises: naive = per-cell hash probes into the cells.
    std::vector<SurpriseFinding> naive_surprises;
    for (const CubeCell* cell : naive_cells) {
      if (!PassesExplorerFilters(*cell, options)) continue;
      if (cell->coords.sa.empty() && cell->coords.ca.empty()) continue;
      double best = 0.0;
      bool any = false;
      for (const CubeCell* parent : Parents(cells, cell->coords)) {
        if (!parent->indexes.defined) continue;
        if (parent->coords.sa.empty()) continue;
        any = true;
        best = std::max(best, parent->Value(kind));
      }
      if (!any) continue;
      double delta = cell->Value(kind) - best;
      if (delta >= 0.05) {
        naive_surprises.push_back(
            SurpriseFinding{cell, cell->Value(kind), best, delta});
      }
    }
    SortSurprises(&naive_surprises);
    auto surprises = DrillDownSurprises(view, kind, 0.05, options);
    ASSERT_EQ(surprises.size(), naive_surprises.size());
    for (size_t i = 0; i < surprises.size(); ++i) {
      EXPECT_EQ(surprises[i].cell->coords, naive_surprises[i].cell->coords);
      EXPECT_DOUBLE_EQ(surprises[i].delta, naive_surprises[i].delta);
      EXPECT_DOUBLE_EQ(surprises[i].best_parent_value,
                       naive_surprises[i].best_parent_value);
    }

    // Reversals: compare against the adjacency-free recomputation.
    std::vector<GranularityReversal> naive_reversals;
    for (const CubeCell* parent : naive_cells) {
      if (!PassesExplorerFilters(*parent, options)) continue;
      std::vector<const CubeCell*> children;
      for (const CubeCell* child : Children(cells, parent->coords)) {
        if (child->coords.sa == parent->coords.sa &&
            child->indexes.defined &&
            !child->coords.sa.empty() &&
            child->context_size >= options.min_context_size &&
            child->minority_size >= options.min_minority_size) {
          children.push_back(child);
        }
      }
      if (children.size() < 2) continue;
      double pv = parent->Value(kind);
      bool all_above = true, all_below = true;
      double min_child = 1e300, max_child = -1e300;
      for (const CubeCell* child : children) {
        double v = child->Value(kind);
        min_child = std::min(min_child, v);
        max_child = std::max(max_child, v);
        if (v < pv + 0.1) all_above = false;
        if (v > pv - 0.1) all_below = false;
      }
      if (all_above) {
        naive_reversals.push_back(
            GranularityReversal{parent, children, pv, min_child, true});
      } else if (all_below) {
        naive_reversals.push_back(
            GranularityReversal{parent, children, pv, max_child, false});
      }
    }
    SortReversals(&naive_reversals);
    auto reversals = FindGranularityReversals(view, kind, 0.1, options);
    ASSERT_EQ(reversals.size(), naive_reversals.size());
    for (size_t i = 0; i < reversals.size(); ++i) {
      EXPECT_EQ(reversals[i].parent->coords,
                naive_reversals[i].parent->coords);
      EXPECT_EQ(reversals[i].children.size(),
                naive_reversals[i].children.size());
      EXPECT_DOUBLE_EQ(reversals[i].min_child_value,
                       naive_reversals[i].min_child_value);
      EXPECT_EQ(reversals[i].children_higher,
                naive_reversals[i].children_higher);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CubeViewPropertyTest,
    ::testing::Values(SweepParams{1, 20}, SweepParams{2, 60},
                      SweepParams{3, 120}, SweepParams{4, 250},
                      SweepParams{5, 400}));

}  // namespace
}  // namespace cube
}  // namespace scube
