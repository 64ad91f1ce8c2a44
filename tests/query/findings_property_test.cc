// Property sweep for the seal-time analytic findings: on random cubes —
// and on the shard views of the same cubes, whose ghosts are baselines but
// never findings — SURPRISES and REVERSALS must answer exactly what the
// scan-and-sort they replaced answered: every cell evaluated, the
// findings sorted, then ORDER BY and the page applied. That scan-and-sort
// lives below as the oracle. Rows are compared field by field, doubles
// bit for bit, through both the explorer API and the executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "cluster/partition.h"
#include "common/random.h"
#include "cube/cube.h"
#include "cube/cube_view.h"
#include "cube/explorer.h"
#include "query/executor.h"
#include "query/merge_key.h"

namespace scube {
namespace {

using cube::CellCoordinates;
using cube::CubeCell;
using cube::CubeView;
using cube::ExplorerOptions;
using cube::GranularityReversal;
using cube::SurpriseFinding;
using indexes::IndexKind;

constexpr size_t kNumSaItems = 5;  // ids 0..4 on the SA axis
constexpr size_t kNumCaItems = 5;  // ids 5..9 on the CA axis

// --- the oracle: the scan-and-sort the findings lists replaced -------------

bool OracleUsable(const CubeCell& cell) {
  return cell.indexes.defined && !cell.coords.sa.empty();
}

std::optional<SurpriseFinding> OracleSurprise(const CubeView& view,
                                              CubeView::CellId id,
                                              IndexKind kind, double min_delta,
                                              const ExplorerOptions& options) {
  const CubeCell& cell = view.cell(id);
  if (!cube::PassesExplorerFilters(cell, options)) return std::nullopt;
  if (cell.coords.sa.empty() && cell.coords.ca.empty()) return std::nullopt;
  double best_parent = 0.0;
  bool any_defined_parent = false;
  for (CubeView::CellId parent_id : view.Parents(id)) {
    const CubeCell& parent = view.cell(parent_id);
    if (!OracleUsable(parent)) continue;
    any_defined_parent = true;
    best_parent = std::max(best_parent, parent.Value(kind));
  }
  if (!any_defined_parent) return std::nullopt;
  double delta = cell.Value(kind) - best_parent;
  if (delta < min_delta) return std::nullopt;
  return SurpriseFinding{&cell, cell.Value(kind), best_parent, delta};
}

std::optional<GranularityReversal> OracleReversal(
    const CubeView& view, CubeView::CellId id, IndexKind kind, double min_gap,
    const ExplorerOptions& options) {
  const CubeCell& parent = view.cell(id);
  if (!cube::PassesExplorerFilters(parent, options)) return std::nullopt;
  std::vector<const CubeCell*> children;
  for (CubeView::CellId child_id : view.Children(id)) {
    const CubeCell& child = view.cell(child_id);
    if (child.coords.sa == parent.coords.sa && OracleUsable(child) &&
        child.context_size >= options.min_context_size &&
        child.minority_size >= options.min_minority_size) {
      children.push_back(&child);
    }
  }
  if (children.size() < 2) return std::nullopt;
  double parent_value = parent.Value(kind);
  bool all_above = true, all_below = true;
  double min_child = 1e300, max_child = -1e300;
  for (const CubeCell* child : children) {
    double v = child->Value(kind);
    min_child = std::min(min_child, v);
    max_child = std::max(max_child, v);
    if (v < parent_value + min_gap) all_above = false;
    if (v > parent_value - min_gap) all_below = false;
  }
  if (all_above) {
    return GranularityReversal{&parent, std::move(children), parent_value,
                               min_child, true};
  }
  if (all_below) {
    return GranularityReversal{&parent, std::move(children), parent_value,
                               max_child, false};
  }
  return std::nullopt;
}

double OracleGap(const GranularityReversal& r) {
  return r.children_higher ? r.min_child_value - r.parent_value
                           : r.parent_value - r.min_child_value;
}

/// Every non-ghost cell evaluated, then sorted by (delta desc, coords asc).
std::vector<SurpriseFinding> OracleSurprises(const CubeView& view,
                                             IndexKind kind, double min_delta,
                                             const ExplorerOptions& options) {
  std::vector<SurpriseFinding> out;
  for (CubeView::CellId id = 0; id < view.NumCells(); ++id) {
    if (view.cell(id).ghost) continue;
    if (auto f = OracleSurprise(view, id, kind, min_delta, options)) {
      out.push_back(*f);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SurpriseFinding& a, const SurpriseFinding& b) {
              if (a.delta != b.delta) return a.delta > b.delta;
              return a.cell->coords < b.cell->coords;
            });
  return out;
}

/// Every non-ghost cell evaluated, then sorted by (gap desc, coords asc).
std::vector<GranularityReversal> OracleReversals(
    const CubeView& view, IndexKind kind, double min_gap,
    const ExplorerOptions& options) {
  std::vector<GranularityReversal> out;
  for (CubeView::CellId id = 0; id < view.NumCells(); ++id) {
    if (view.cell(id).ghost) continue;
    if (auto r = OracleReversal(view, id, kind, min_gap, options)) {
      out.push_back(std::move(*r));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const GranularityReversal& a, const GranularityReversal& b) {
              double ga = OracleGap(a), gb = OracleGap(b);
              if (ga != gb) return ga > gb;
              return a.parent->coords < b.parent->coords;
            });
  return out;
}

/// The executor's answer before the findings lists: the oracle's findings
/// as rows, then ORDER BY, then the page.
std::vector<query::ResultRow> OracleRows(const CubeView& view,
                                         const query::Query& q, bool keys) {
  ExplorerOptions options;
  if (q.min_t) options.min_context_size = *q.min_t;
  if (q.min_m) options.min_minority_size = *q.min_m;
  auto base_row = [&view](const CubeCell& cell) {
    query::ResultRow row;
    row.sa = view.catalog().LabelSet(cell.coords.sa);
    row.ca = view.catalog().LabelSet(cell.coords.ca);
    row.t = cell.context_size;
    row.m = cell.minority_size;
    row.units = cell.num_units;
    row.defined = cell.indexes.defined;
    row.indexes = cell.indexes.values;
    return row;
  };
  std::vector<query::ResultRow> rows;
  if (q.verb == query::Verb::kSurprises) {
    for (const SurpriseFinding& f :
         OracleSurprises(view, q.by, q.threshold, options)) {
      query::ResultRow row = base_row(*f.cell);
      row.value = f.value;
      row.aux = f.delta;
      row.aux2 = f.best_parent_value;
      if (keys) {
        query::AppendDoubleKey(f.delta, /*descending=*/true, &row.skey);
        query::AppendCoordKey(f.cell->coords, &row.skey);
      }
      rows.push_back(std::move(row));
    }
  } else {
    for (const GranularityReversal& r :
         OracleReversals(view, q.by, q.threshold, options)) {
      query::ResultRow row = base_row(*r.parent);
      row.value = r.parent_value;
      row.aux = r.min_child_value;
      row.aux2 = static_cast<double>(r.children.size());
      row.tag = r.children_higher ? "masked" : "inflated";
      if (keys) {
        query::AppendDoubleKey(OracleGap(r), /*descending=*/true, &row.skey);
        query::AppendCoordKey(r.parent->coords, &row.skey);
      }
      rows.push_back(std::move(row));
    }
  }
  if (q.order) query::SortRows(*q.order, &rows);
  const size_t begin = std::min<size_t>(q.offset.value_or(0), rows.size());
  size_t end = rows.size();
  if (q.limit) end = std::min<size_t>(end, begin + *q.limit);
  return std::vector<query::ResultRow>(rows.begin() + begin,
                                       rows.begin() + end);
}

// --- comparisons -------------------------------------------------------------

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameSurprises(const std::vector<SurpriseFinding>& expected,
                         const std::vector<SurpriseFinding>& actual,
                         const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].cell, actual[i].cell) << what << " at " << i;
    EXPECT_TRUE(SameBits(expected[i].value, actual[i].value)) << what;
    EXPECT_TRUE(SameBits(expected[i].delta, actual[i].delta)) << what;
    EXPECT_TRUE(SameBits(expected[i].best_parent_value,
                         actual[i].best_parent_value))
        << what;
  }
}

void ExpectSameReversals(const std::vector<GranularityReversal>& expected,
                         const std::vector<GranularityReversal>& actual,
                         const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].parent, actual[i].parent) << what << " at " << i;
    EXPECT_EQ(expected[i].children, actual[i].children) << what;
    EXPECT_TRUE(SameBits(expected[i].parent_value, actual[i].parent_value))
        << what;
    EXPECT_TRUE(
        SameBits(expected[i].min_child_value, actual[i].min_child_value))
        << what;
    EXPECT_EQ(expected[i].children_higher, actual[i].children_higher) << what;
  }
}

void ExpectSameRows(const std::vector<query::ResultRow>& expected,
                    const std::vector<query::ResultRow>& actual,
                    const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    const query::ResultRow& e = expected[i];
    const query::ResultRow& a = actual[i];
    EXPECT_EQ(e.sa, a.sa) << what << " at " << i;
    EXPECT_EQ(e.ca, a.ca) << what << " at " << i;
    EXPECT_EQ(e.t, a.t) << what;
    EXPECT_EQ(e.m, a.m) << what;
    EXPECT_EQ(e.units, a.units) << what;
    EXPECT_EQ(e.defined, a.defined) << what;
    for (size_t k = 0; k < e.indexes.size(); ++k) {
      EXPECT_TRUE(SameBits(e.indexes[k], a.indexes[k])) << what;
    }
    EXPECT_TRUE(SameBits(e.value, a.value)) << what << " at " << i;
    EXPECT_TRUE(SameBits(e.aux, a.aux)) << what << " at " << i;
    EXPECT_TRUE(SameBits(e.aux2, a.aux2)) << what << " at " << i;
    EXPECT_EQ(e.tag, a.tag) << what << " at " << i;
    EXPECT_EQ(e.skey, a.skey) << what << " at " << i;
  }
}

// --- random cubes ------------------------------------------------------------

relational::ItemCatalog SweepCatalog() {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  for (size_t i = 0; i < kNumSaItems; ++i) {
    catalog.GetOrAdd(i, "s" + std::to_string(i), "v",
                     AttributeKind::kSegregation);
  }
  for (size_t i = 0; i < kNumCaItems; ++i) {
    catalog.GetOrAdd(kNumSaItems + i, "c" + std::to_string(i), "v",
                     AttributeKind::kContext);
  }
  return catalog;
}

fpm::Itemset RandomSubset(Rng* rng, fpm::ItemId first, size_t universe,
                          size_t max_size) {
  std::vector<fpm::ItemId> items;
  size_t size = rng->NextBounded(max_size + 1);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(first +
                    static_cast<fpm::ItemId>(rng->NextBounded(universe)));
  }
  return fpm::Itemset(std::move(items));  // dedupes
}

/// Mostly uniform in [0, 1); some powers of two (where rounding a sum
/// breaks ties differently on either side), zeros and negatives.
double RandomValue(Rng* rng) {
  static const double kSpecial[] = {0.5, 0.25, 1.0, 0.0, -0.0, -0.5, -0.25};
  if (rng->NextBool(0.15)) {
    return kSpecial[rng->NextBounded(sizeof(kSpecial) / sizeof(double))];
  }
  double v = rng->NextDouble();
  return rng->NextBool(0.05) ? -v : v;
}

cube::SegregationCube RandomCube(uint64_t seed, size_t target_cells) {
  Rng rng(seed);
  std::unordered_map<CellCoordinates, CubeCell, cube::CellCoordinatesHash>
      cells;
  for (size_t i = 0; i < target_cells; ++i) {
    CubeCell cell;
    // Pure-context and root coordinates arise naturally; some are defined,
    // which only hand-built cubes allow.
    cell.coords =
        CellCoordinates{RandomSubset(&rng, 0, kNumSaItems, 3),
                        RandomSubset(&rng, kNumSaItems, kNumCaItems, 3)};
    cell.context_size = 1 + rng.NextBounded(120);
    cell.minority_size = rng.NextBounded(cell.context_size + 1);
    cell.num_units = 1 + static_cast<uint32_t>(rng.NextBounded(3));
    cell.indexes.defined = !rng.NextBool(0.15);
    for (double& v : cell.indexes.values) v = RandomValue(&rng);
    CellCoordinates key = cell.coords;
    cells[key] = std::move(cell);
  }
  // Children equal to their parent: copy a CA-parent's values into about a
  // third of the cells, in coordinate order so chains of copies form.
  std::vector<CellCoordinates> keys;
  for (const auto& [coords, cell] : cells) keys.push_back(coords);
  std::sort(keys.begin(), keys.end());
  for (const CellCoordinates& key : keys) {
    if (key.ca.empty() || !rng.NextBool(0.35)) continue;
    CellCoordinates parent{key.sa, key.ca.Minus(fpm::Itemset({key.ca[0]}))};
    auto it = cells.find(parent);
    if (it != cells.end()) cells[key].indexes.values = it->second.indexes.values;
  }
  cube::SegregationCube cube(SweepCatalog(), {"u0", "u1", "u2"});
  for (auto& [coords, cell] : cells) cube.Insert(std::move(cell));
  return cube;
}

/// The full view, then the shard views of a 2- and a 3-way partition.
std::vector<CubeView> ViewsOf(const cube::SegregationCube& cube) {
  std::vector<CubeView> views;
  views.push_back(cube::SegregationCube(cube).Seal());
  for (size_t shards : {2, 3}) {
    cluster::PartitionOptions options;
    options.num_shards = shards;
    for (cube::SegregationCube& shard :
         cluster::PartitionCube(views.front(), options)) {
      views.push_back(std::move(shard).Seal());
    }
  }
  return views;
}

/// Thresholds for one index: negatives, zero, a grid, tiny gaps that
/// round away in parent + gap, and each sampled finding's exact delta or
/// gap with one ulp either side.
std::vector<double> Thresholds(const CubeView& view, IndexKind kind,
                               bool surprises, Rng* rng) {
  std::vector<double> out = {-0.5, -0.0, 0.0, 0.01, 0.05, 0.1, 0.2, 0.3,
                             0.5, 1.0, 1e-20, std::ldexp(1.0, -54),
                             std::ldexp(1.0, -55), 3 * std::ldexp(1.0, -56),
                             std::numeric_limits<double>::denorm_min()};
  std::vector<double> exact;
  const double all = -std::numeric_limits<double>::infinity();
  if (surprises) {
    for (const SurpriseFinding& f :
         OracleSurprises(view, kind, all, ExplorerOptions())) {
      exact.push_back(f.delta);
    }
  } else {
    for (const GranularityReversal& r :
         OracleReversals(view, kind, 0.0, ExplorerOptions())) {
      exact.push_back(OracleGap(r));
    }
  }
  for (size_t i = 0; i < 6 && !exact.empty(); ++i) {
    double v = exact[rng->NextBounded(exact.size())];
    out.push_back(v);
    out.push_back(std::nextafter(v, std::numeric_limits<double>::infinity()));
    out.push_back(std::nextafter(v, -std::numeric_limits<double>::infinity()));
  }
  return out;
}

/// No floors given (the defaults), the defaults spelled out, looser,
/// tighter, and one floor only, either way.
std::vector<std::pair<std::optional<uint64_t>, std::optional<uint64_t>>>
WhereFloors() {
  return {{std::nullopt, std::nullopt}, {30, 5},  {1, 1},
          {60, 10},       {std::nullopt, 1},       {std::nullopt, 12},
          {10, std::nullopt}, {45, std::nullopt}, {80, std::nullopt}};
}

struct SweepParams {
  uint64_t seed;
  size_t target_cells;
};

class FindingsPropertyTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(FindingsPropertyTest, ExplorerWalksMatchTheScanAndSort) {
  const cube::SegregationCube cube =
      RandomCube(GetParam().seed, GetParam().target_cells);
  std::vector<CubeView> views = ViewsOf(cube);
  Rng rng(GetParam().seed * 7919);
  // Findings compared, and reversals that pass a positive MINGAP although
  // their gap is below it (parent + MINGAP rounded back to the parent).
  size_t surprises = 0, reversals = 0, rounded_gaps = 0;
  for (size_t v = 0; v < views.size(); ++v) {
    const CubeView& view = views[v];
    for (IndexKind kind : indexes::AllIndexKinds()) {
      for (const auto& [min_t, min_m] : WhereFloors()) {
        ExplorerOptions options;
        if (min_t) options.min_context_size = *min_t;
        if (min_m) options.min_minority_size = *min_m;
        const std::string what =
            "view " + std::to_string(v) + " " +
            indexes::IndexKindToString(kind) + " T>=" +
            std::to_string(options.min_context_size) + " M>=" +
            std::to_string(options.min_minority_size);
        for (double t : Thresholds(view, kind, true, &rng)) {
          auto expected = OracleSurprises(view, kind, t, options);
          surprises += expected.size();
          ExpectSameSurprises(expected,
                              cube::DrillDownSurprises(view, kind, t, options),
                              what + " MINDELTA " + std::to_string(t));
        }
        for (double t : Thresholds(view, kind, false, &rng)) {
          auto expected = OracleReversals(view, kind, t, options);
          reversals += expected.size();
          for (const GranularityReversal& r : expected) {
            if (t > 0 && OracleGap(r) < t) ++rounded_gaps;
          }
          ExpectSameReversals(
              expected, cube::FindGranularityReversals(view, kind, t, options),
              what + " MINGAP " + std::to_string(t));
        }
      }
    }
  }
  if (GetParam().target_cells >= 250) {
    EXPECT_GT(surprises, 0u);
    EXPECT_GT(reversals, 0u);
    EXPECT_GT(rounded_gaps, 0u);
  }
}

TEST_P(FindingsPropertyTest, ExecutorPagesMatchTheScanAndSort) {
  const cube::SegregationCube cube =
      RandomCube(GetParam().seed, GetParam().target_cells);
  std::vector<CubeView> views = ViewsOf(cube);
  Rng rng(GetParam().seed * 104729);
  const std::vector<std::optional<query::OrderBy>> orders = {
      std::nullopt,
      query::OrderBy{query::OrderBy::Key::kContextSize, IndexKind::kGini,
                     true},
      query::OrderBy{query::OrderBy::Key::kIndex, IndexKind::kGini, false}};
  for (size_t v = 0; v < views.size(); ++v) {
    const CubeView& view = views[v];
    query::Executor executor(view);
    for (IndexKind kind : indexes::AllIndexKinds()) {
      for (bool surprises : {true, false}) {
        for (double threshold : Thresholds(view, kind, surprises, &rng)) {
          query::Query q;
          q.verb = surprises ? query::Verb::kSurprises
                             : query::Verb::kReversals;
          q.by = kind;
          q.threshold = threshold;
          const auto floors = WhereFloors();
          std::tie(q.min_t, q.min_m) = floors[rng.NextBounded(floors.size())];
          q.order = orders[rng.NextBounded(orders.size())];
          if (rng.NextBool(0.6)) q.limit = 1 + rng.NextBounded(4);
          if (rng.NextBool(0.4)) q.offset = rng.NextBounded(5);
          query::QueryContext ctx;
          ctx.merge_keys = !q.order && rng.NextBool(0.5);
          const std::string what = "view " + std::to_string(v) + ": " +
                                   query::Canonical(q) +
                                   (ctx.merge_keys ? " (keys)" : "");
          auto result = executor.Execute(q, ctx);
          ASSERT_TRUE(result.ok()) << what << ": " << result.status();
          ExpectSameRows(OracleRows(view, q, ctx.merge_keys), result->rows,
                         what);
          // The whole stream: the page is exhausted iff no row follows it.
          query::Query whole = q;
          whole.limit.reset();
          whole.offset.reset();
          const size_t total = OracleRows(view, whole, false).size();
          const size_t next = q.offset.value_or(0) + result->rows.size();
          EXPECT_EQ(result->exhausted, next >= total) << what;
          EXPECT_LE(result->cells_scanned, view.NumCells()) << what;
        }
      }
    }
  }
}

TEST_P(FindingsPropertyTest, ListsAreTheSameForEveryThreadCount) {
  const cube::SegregationCube cube =
      RandomCube(GetParam().seed, GetParam().target_cells);
  CubeView one = cube::SegregationCube(cube).Seal(1);
  CubeView four = cube::SegregationCube(cube).Seal(4);
  for (IndexKind kind : indexes::AllIndexKinds()) {
    auto s1 = one.SurpriseOrder(kind), s4 = four.SurpriseOrder(kind);
    EXPECT_TRUE(std::equal(s1.begin(), s1.end(), s4.begin(), s4.end()));
    auto r1 = one.ReversalOrder(kind), r4 = four.ReversalOrder(kind);
    ASSERT_EQ(r1.size(), r4.size());
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].id, r4[i].id);
      EXPECT_TRUE(SameBits(r1[i].lowest_child, r4[i].lowest_child));
      EXPECT_TRUE(SameBits(r1[i].highest_child, r4[i].highest_child));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FindingsPropertyTest,
    ::testing::Values(SweepParams{1, 30}, SweepParams{2, 80},
                      SweepParams{3, 150}, SweepParams{4, 300},
                      SweepParams{5, 600}, SweepParams{6, 1000}));

}  // namespace
}  // namespace scube
