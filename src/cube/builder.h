// SegregationDataCubeBuilder (paper §2, algorithm of [4]).
//
// Segregation indexes are not additive, so the cube cannot be produced with
// ordinary group-by aggregation. The builder instead:
//   1. encodes the finalTable as a transaction database (one item per
//      attribute=value pair, SA and CA attributes);
//   2. mines frequent (closed) itemsets of the form A ∪ B where A are SA
//      items and B are CA items with FP-Growth (fpm::MineFrequentItemsets),
//      at most max_sa_items + max_ca_items items long — one itemset per
//      candidate cube cell; itemsets over either cap are dropped;
//   3. for each mined itemset, derives per-unit counts
//         T   = |cover(B)|,        t_i = |cover(B) ∩ unit_i|,
//         M   = |cover(A ∪ B)|,    m_i = |cover(A ∪ B) ∩ unit_i|
//      from dense row bitsets, one per item, built once per fill: cover(B)
//      is the AND of B's item words, computed once for all the cells that
//      share B; cover(A ∪ B) narrows it by A's item words; a countr_zero
//      walk through the row→unit array turns either into per-unit counts;
//   4. fills the cell with all six segregation indexes (undefined cells —
//      M = 0 or M = T — stay in the cube and render as "-", Fig. 1) in
//      one pass over its units (indexes::ComputeAllIndexes); each unit's
//      (m_i, t_i) terms come from a UnitTermTable built once per fill for
//      units of up to min(largest unit, UnitTermTable::kMaxTotalBound)
//      members and shared read-only by the workers, larger units compute
//      theirs directly, and the cell's bits are the same either way.

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
  fpm::MineMode mode = fpm::MineMode::kClosed;

  /// Worker threads for the cell-filling phase (mining stays sequential).
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
  uint64_t mined_itemsets = 0;
  uint64_t cells_created = 0;
  uint64_t cells_defined = 0;
  uint64_t contexts_memoized = 0;
  uint32_t threads_used = 1;      ///< effective fill-phase parallelism
  double seconds_encoding = 0.0;
  double seconds_mining = 0.0;
  double seconds_grouping = 0.0;  ///< split/filter/group-by-context prepass
  double seconds_filling = 0.0;   ///< wall time of the (parallel) fill
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
