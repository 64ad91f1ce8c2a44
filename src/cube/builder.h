// SegregationDataCubeBuilder (paper §2, algorithm of [4]).
//
// Segregation indexes are not additive, so the cube cannot be produced with
// ordinary group-by aggregation. The builder instead:
//   1. encodes the finalTable as a transaction database (one item per
//      attribute=value pair, SA and CA attributes);
//   2. mines the candidate cells with FP-Growth (fpm::MineFrequentItemsets):
//      the frequent itemsets A ∪ B, where A are SA items and B are CA
//      items, with at most max_sa_items SA and max_ca_items CA items. The
//      caps prune the recursion itself, so no itemset over a cap is ever
//      enumerated;
//   3. for each candidate, narrows the context cover by A into
//      cover(A ∪ B) and decides from those words whether it is a cell
//      (kClosed: no item outside it covers all of its rows; kMaximal: no
//      item outside it meets min support inside it; both relative to the
//      itemsets of length at most max_sa_items + max_ca_items, see
//      CellTest in builder.cc). For every cell it derives per-unit counts
//         T   = |cover(B)|,        t_i = |cover(B) ∩ unit_i|,
//         M   = |cover(A ∪ B)|,    m_i = |cover(A ∪ B) ∩ unit_i|
//      from dense row bitsets, one per item, built once per fill: cover(B)
//      is the AND of B's item words, computed once for all the candidates
//      that share B, and its unit totals once, at B's first cell; a
//      countr_zero walk through the row→unit array turns either cover into
//      per-unit counts;
//   4. fills the cell with all six segregation indexes (undefined cells —
//      M = 0 or M = T — stay in the cube and render as "-", Fig. 1) in
//      one pass over its units (indexes::ComputeAllIndexes), which reads
//      the worker's own t_i and m_i arrays: T is summed once per context
//      and M is the popcount of the cell's cover words. Each unit's
//      (m_i, t_i) terms come from a UnitTermTable built once per fill for
//      units of up to min(largest unit, UnitTermTable::kMaxTotalBound)
//      members and shared read-only by the workers, larger units compute
//      theirs directly, and the cell's bits are the same either way. Gini
//      counts a cell's units per table rank, so it sorts only the
//      distinct ranks.

#ifndef SCUBE_CUBE_BUILDER_H_
#define SCUBE_CUBE_BUILDER_H_

#include <cstdint>

#include "common/result.h"
#include "common/trace.h"
#include "cube/cube.h"
#include "fpm/miner.h"
#include "relational/table.h"
#include "relational/transactions.h"

namespace scube {
namespace cube {

/// \brief Builder parameters.
struct CubeBuilderOptions {
  /// Absolute minimum support (individuals) for a cell to materialise.
  uint64_t min_support = 1;

  /// Alternative relative threshold in [0,1] (anything else, NaN too, is
  /// InvalidArgument); the effective minimum support is
  /// max(min_support, ceil(min_support_fraction * |rows|)).
  double min_support_fraction = 0.0;

  /// Coordinate-length caps: at most this many SA items / CA items per cell
  /// (multi-dimensional cubes explode combinatorially; the paper's scenarios
  /// use 3 SA and a handful of CA attributes).
  uint32_t max_sa_items = 3;
  uint32_t max_ca_items = 2;

  /// kClosed (the paper's choice): one cell per closed itemset.
  /// kAll: every frequent coordinate combination becomes a cell.
  /// kMaximal: one cell per frequent itemset with no frequent superset.
  fpm::MineMode mode = fpm::MineMode::kClosed;

  /// Worker threads for the cell-filling phase, which also decides
  /// closedness (mining stays sequential).
  /// 1 = sequential, 0 = all hardware threads, N = at most N threads from
  /// the shared pool. Output is identical for every setting: itemsets are
  /// grouped by context, each context is computed exactly once by exactly
  /// one worker, and group outputs merge in deterministic order.
  size_t num_threads = 1;

  /// Atkinson parameter etc.; a b outside (0,1) is InvalidArgument.
  indexes::IndexParams index_params;

  /// Optional span sink (not owned). Phases record as "build.encode",
  /// "build.mine", "build.group" and "build.fill" — the same names
  /// bench_cube_builder and PublishAndWarm ("build.seal") report, so one
  /// trace shows the whole publish path. Null = no tracing.
  trace::TraceContext* trace = nullptr;
};

/// \brief Build statistics (reported by the demo's efficiency discussion).
/// All `seconds_*` timers are wall time of the phase, never summed worker
/// time — with num_threads > 1, seconds_filling is the elapsed time of the
/// whole parallel fill, so fill speedup = sequential / parallel directly.
struct CubeBuildStats {
  uint64_t mined_itemsets = 0;  ///< candidates FP-Growth enumerated
  uint64_t cells_created = 0;
  uint64_t cells_defined = 0;
  uint64_t contexts_memoized = 0;  ///< contexts holding at least one cell
  uint32_t threads_used = 1;      ///< effective fill-phase parallelism
  double seconds_encoding = 0.0;
  double seconds_mining = 0.0;
  double seconds_grouping = 0.0;  ///< split/group-by-context prepass
  double seconds_filling = 0.0;   ///< wall time of the (parallel) fill,
                                  ///< cell tests included
};

/// Builds the cube from an already-encoded relation.
Result<SegregationCube> BuildSegregationCube(
    const relational::EncodedRelation& encoded,
    const CubeBuilderOptions& options, CubeBuildStats* stats = nullptr);

/// Convenience: encodes `final_table` (see EncodeForAnalysis) and builds.
Result<SegregationCube> BuildSegregationCube(
    const relational::Table& final_table, const CubeBuilderOptions& options,
    CubeBuildStats* stats = nullptr);

}  // namespace cube
}  // namespace scube

#endif  // SCUBE_CUBE_BUILDER_H_
