// SCubeQL executor: lowers a parsed Query onto one sealed cube snapshot
// (cube::CubeView). Coordinate constraints (attribute=value) resolve to
// item ids through the view's ItemCatalog; verbs lower onto the view's
// secondary indexes:
//
//   SLICE     exact-coordinate slice groups (hash lookup -> id span), or a
//             single point lookup when both axes are given,
//   DICE      posting-list intersection over the per-item inverted lists,
//   TOPK      a walk of the view's precomputed ranked order,
//   ROLLUP /
//   DRILLDOWN parent/child adjacency lists (coordinate probes when the
//             addressed cell is absent from the cube),
//   SURPRISES /
//   REVERSALS the view's per-index findings lists, walked lazily through
//             the page (cube::VisitSurprises / VisitReversals); REVERSALS
//             with T/M floors other than the defaults, or MINGAP < 0,
//             evaluates every cell and sorts instead.
//
// No verb scans the full cube per call except that REVERSALS fallback.

#ifndef SCUBE_QUERY_EXECUTOR_H_
#define SCUBE_QUERY_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "cube/cube_view.h"
#include "cube/explorer.h"
#include "query/ast.h"
#include "query/context.h"
#include "query/query_result.h"
#include "query/row_sink.h"

namespace scube {
namespace query {

/// \brief Accounting for one streamed execution (ExecuteToSink).
struct StreamStats {
  /// sink.Begin was called — bytes may be on the wire. When false, the
  /// query failed before any output (resolution error, expired deadline)
  /// and the caller can still answer with a plain error response.
  bool begun = false;

  /// The sink stopped the stream (Row returned false) for its own reasons
  /// — typically a closed client connection. Distinct from the page limit.
  bool aborted = false;

  /// The underlying row stream ran out: there is no further page.
  bool exhausted = true;

  /// Rows delivered to the sink (after OFFSET skipping and LIMIT).
  uint64_t rows_emitted = 0;

  /// Absolute row offset (into the unpaginated stream) the next page
  /// starts at; meaningful when !exhausted.
  uint64_t next_offset = 0;

  /// Cells/candidates inspected — LIMIT and deadline pushdown stop walks
  /// early, so this can be far below the materialised path's count.
  uint64_t cells_scanned = 0;
};

/// The ORDER BY sort, shared between the executor's materialised path
/// and the scatter-gather router: a router re-sorting the merged global
/// TOPK selection must use the exact comparator (stable, undefined cells
/// last under index keys) or sharded output drifts from single-node.
void SortRows(const OrderBy& order, std::vector<ResultRow>* rows);

/// \brief Executes queries against one sealed cube snapshot.
///
/// Construction costs nothing (coordinates resolve through the view's
/// ItemCatalog), so callers build one per statement. Immutable and safe to
/// share across threads. Every answer's ResultHeader carries `version`,
/// the store version of `view`.
class Executor {
 public:
  explicit Executor(const cube::CubeView& view, uint64_t version = 0)
      : view_(view), version_(version) {}

  /// Executes one query: the ExecuteToSink stream captured by a
  /// VectorSink, pagination included.
  Result<QueryResult> Execute(const Query& query,
                              const QueryContext& ctx = {}) const;

  /// Executes one query, pushing rows into `sink` as the index walks
  /// produce them (O(1) result memory for unordered verbs). The page is
  /// `query.offset` / `query.limit` over the deterministic row stream;
  /// `stats` reports whether more rows remain and where to resume.
  ///
  /// Protocol: this calls sink.Begin and sink.Row only — never
  /// sink.Finish; the caller finishes the sink with the trailer (it owns
  /// the cursor token). When the returned status is not OK and
  /// stats->begun is false, the sink was never touched.
  ///
  /// LIMIT/deadline pushdown: ranked walks, slice walks and posting-list
  /// intersections stop as soon as the page is full, the sink declines a
  /// row, or the context deadline expires (checked every few thousand
  /// candidates, not just at statement boundaries).
  Status ExecuteToSink(const Query& query, const QueryContext& ctx,
                       RowSink& sink, StreamStats* stats = nullptr) const;

  /// Resolves attribute=value constraints into an itemset of the given
  /// kind. NotFound for unknown attributes/values, InvalidArgument when a
  /// constraint names an attribute of the other kind (e.g. a context
  /// attribute inside `sa=`).
  Result<fpm::Itemset> ResolveItems(const std::vector<AttrValue>& constraints,
                                    relational::AttributeKind kind) const;

 private:
  const cube::CubeView& view_;
  const uint64_t version_;
};

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_EXECUTOR_H_
