#include "query/executor.h"

#include <algorithm>

#include "common/trace.h"
#include "query/merge_key.h"

namespace scube {
namespace query {

namespace {

/// Deadline probes inside index walks are amortised: one clock read per
/// kDeadlineStride candidates, not per candidate.
constexpr uint64_t kDeadlineStride = 4096;

/// A cell's row: the sealed labels copied, the sealed index texts pointed
/// at (ResultRow::texts).
ResultRow MakeRow(const cube::CubeView& view, const cube::CubeCell& cell) {
  const cube::CubeView::CellId id = view.IdOf(cell);
  ResultRow row;
  row.sa = view.SaLabel(id);
  row.ca = view.CaLabel(id);
  row.t = cell.context_size;
  row.m = cell.minority_size;
  row.units = cell.num_units;
  row.defined = cell.indexes.defined;
  row.indexes = cell.indexes.values;
  row.texts = &view.Texts(id);
  return row;
}

/// WHERE filter for navigation verbs: only the explicitly given bounds.
bool PassesWhere(const cube::CubeCell& cell, const Query& q) {
  if (q.min_t && cell.context_size < *q.min_t) return false;
  if (q.min_m && cell.minority_size < *q.min_m) return false;
  return true;
}

/// Analytic verbs inherit the explorer defaults (T >= 30, M >= 5,
/// non-empty subgroup) with WHERE bounds overriding.
cube::ExplorerOptions ExplorerOptionsFor(const Query& q) {
  cube::ExplorerOptions opts;
  if (q.min_t) opts.min_context_size = *q.min_t;
  if (q.min_m) opts.min_minority_size = *q.min_m;
  return opts;
}

/// The ORDER BY sort key of one row; shared between SortRows and the
/// merge-key prefix so shards and the single node can never disagree.
double OrderKeyValue(const OrderBy& order, const ResultRow& row) {
  switch (order.key) {
    case OrderBy::Key::kContextSize:
      return static_cast<double>(row.t);
    case OrderBy::Key::kMinoritySize:
      return static_cast<double>(row.m);
    case OrderBy::Key::kIndex:
      break;
  }
  return row.indexes[static_cast<size_t>(order.index)];
}

}  // namespace

/// ORDER BY sort, identical to the pre-streaming materialised path.
/// External linkage: the scatter-gather router re-sorts the merged
/// global TOPK selection with this exact comparator (executor.h).
void SortRows(const OrderBy& order, std::vector<ResultRow>* rows) {
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const ResultRow& a, const ResultRow& b) {
                     // Undefined cells sort last under index keys.
                     if (order.key == OrderBy::Key::kIndex &&
                         a.defined != b.defined) {
                       return a.defined;
                     }
                     return order.descending
                                ? OrderKeyValue(order, a) > OrderKeyValue(order, b)
                                : OrderKeyValue(order, a) < OrderKeyValue(order, b);
                   });
}

namespace {

/// Rewrites each row's merge key as (ORDER BY sort key ++ natural walk
/// key). stable_sort breaks ties by walk position, which is exactly the
/// natural-key order, so the combined key reproduces the sorted stream.
void PrefixOrderKeys(const OrderBy& order, std::vector<ResultRow>* rows) {
  for (ResultRow& row : *rows) {
    std::string key;
    key.reserve(9 + row.skey.size());
    if (order.key == OrderBy::Key::kIndex) {
      key.push_back(row.defined ? '\x00' : '\x01');  // undefined sorts last
    }
    AppendDoubleKey(OrderKeyValue(order, row), order.descending, &key);
    key += row.skey;
    row.skey = std::move(key);
  }
}

/// The version and the verb-specific column layout, known before any row
/// is produced.
ResultHeader HeaderFor(const Query& q, uint64_t version) {
  ResultHeader header;
  header.version = version;
  header.verb = q.verb;
  header.by = q.by;
  switch (q.verb) {
    case Verb::kTopK:
      header.has_value = true;
      break;
    case Verb::kSurprises:
      header.has_value = true;
      header.has_aux = true;
      header.aux_name = "delta";
      header.has_aux2 = true;
      header.aux2_name = "best_parent";
      break;
    case Verb::kReversals:
      header.has_value = true;
      header.has_aux = true;
      header.aux_name = "boundary_child";
      header.has_aux2 = true;
      header.aux2_name = "children";
      header.has_tag = true;
      header.tag_name = "direction";
      break;
    default:
      break;
  }
  return header;
}

/// How a query consumes the view's indexes.
enum class Mode {
  kPoint,      ///< fully addressed SLICE: one map lookup
  kSliceSa,    ///< exact-SA slice group
  kSliceCa,    ///< exact-CA slice group
  kDice,       ///< posting-list intersection
  kTopK,       ///< ranked-order walk
  kRollup,     ///< parent adjacency / probes
  kDrilldown,  ///< child adjacency / probes
  kFindings,   ///< SURPRISES / REVERSALS: the view's findings lists
};

/// Span name of the index walk a mode performs — the per-verb phase names
/// surfaced by ?debug=trace and the slow-query log.
const char* SpanNameFor(Mode mode) {
  switch (mode) {
    case Mode::kPoint:
      return "walk.point";
    case Mode::kSliceSa:
    case Mode::kSliceCa:
      return "walk.slice";
    case Mode::kDice:
      return "walk.dice";
    case Mode::kTopK:
      return "walk.topk";
    case Mode::kRollup:
      return "walk.rollup";
    case Mode::kDrilldown:
      return "walk.drilldown";
    case Mode::kFindings:
      return "walk.analytic";
  }
  return "walk";
}

struct Prepared {
  const Query* query = nullptr;
  Status error;       ///< resolution failure, reported at finalise time
  fpm::Itemset sa;    ///< resolved SA constraint items
  fpm::Itemset ca;    ///< resolved CA constraint items
  Mode mode = Mode::kPoint;
  cube::ExplorerOptions explorer;  ///< analytic-verb filters, precomputed
};

Mode ClassifyQuery(const Query& q) {
  switch (q.verb) {
    case Verb::kSlice:
      if (!q.sa.empty() && !q.ca.empty()) return Mode::kPoint;
      if (!q.sa.empty()) return Mode::kSliceSa;
      if (!q.ca.empty()) return Mode::kSliceCa;
      // A SLICE with no coordinates (only a hand-built Query; the parser
      // rejects it): the unconstrained dice walk visits every cell in id
      // order.
      return Mode::kDice;
    case Verb::kDice:
      return Mode::kDice;
    case Verb::kTopK:
      return Mode::kTopK;
    case Verb::kRollup:
      return Mode::kRollup;
    case Verb::kDrilldown:
      return Mode::kDrilldown;
    case Verb::kSurprises:
    case Verb::kReversals:
      return Mode::kFindings;
  }
  return Mode::kPoint;
}

/// Produces the unpaginated row stream of a prepared query, calling
/// feed(row_factory) per row in stream order until feed returns false —
/// the factory builds the ResultRow, so consumers that discard the row
/// (OFFSET skipping) never construct it. `scanned` counts inspected
/// cells/candidates. DeadlineExceeded when the ticker fires mid-walk.
///
/// Ghost cells (shard replicas owned by another shard) are filtered at
/// every emission site — each shard's stream is then an exact subsequence
/// of the global stream, which is what makes per-shard LIMIT pushdown and
/// merge-key stitching sound. `keys` (QueryContext::merge_keys) stamps
/// each row with its order-preserving merge key (query/merge_key.h).
template <typename Feed>
Status WalkRows(const cube::CubeView& view, const Prepared& p,
                DeadlineTicker& ticker, bool keys, uint64_t* scanned,
                Feed&& feed) {
  const Query& q = *p.query;
  auto expired = [] {
    return Status::DeadlineExceeded(
        "query deadline expired before execution completed");
  };

  switch (p.mode) {
    case Mode::kPoint: {
      const cube::CubeCell* cell = view.Find(p.sa, p.ca);
      *scanned = 1;
      if (cell != nullptr && !cell->ghost && PassesWhere(*cell, q)) {
        feed([&] {
          ResultRow row = MakeRow(view, *cell);
          if (keys) AppendCoordKey(cell->coords, &row.skey);
          return row;
        });
      }
      return Status::OK();
    }

    case Mode::kSliceSa:
    case Mode::kSliceCa: {
      auto group = p.mode == Mode::kSliceSa ? view.SliceBySa(p.sa)
                                            : view.SliceByCa(p.ca);
      for (cube::CubeView::CellId id : group) {
        ++*scanned;
        if (ticker.Tick()) return expired();
        const cube::CubeCell& cell = view.cell(id);
        if (cell.ghost) continue;
        if (PassesWhere(cell, q) && !feed([&] {
              ResultRow row = MakeRow(view, cell);
              if (keys) AppendCoordKey(cell.coords, &row.skey);
              return row;
            })) {
          break;
        }
      }
      return Status::OK();
    }

    case Mode::kDice: {
      view.DiceVisit(
          p.sa, p.ca, scanned,
          [&](cube::CubeView::CellId id) {
            const cube::CubeCell& cell = view.cell(id);
            if (cell.ghost || !PassesWhere(cell, q)) return true;
            return feed([&] {
              ResultRow row = MakeRow(view, cell);
              if (keys) AppendCoordKey(cell.coords, &row.skey);
              return row;
            });
          },
          [&] { return !ticker.Tick(); });
      if (ticker.expired()) return expired();
      return Status::OK();
    }

    case Mode::kTopK: {
      uint64_t produced = 0;
      for (cube::CubeView::CellId id : view.RankedByIndex(q.by)) {
        if (produced >= q.k) break;
        ++*scanned;
        if (ticker.Tick()) return expired();
        const cube::CubeCell& cell = view.cell(id);
        // Ghosts are skipped before the k cap: the shard's top-k are the
        // k best *owned* cells, a superset of its share of the global
        // top-k.
        if (cell.ghost) continue;
        if (!cube::PassesExplorerFilters(cell, p.explorer)) continue;
        ++produced;
        bool keep = feed([&] {
          ResultRow row = MakeRow(view, cell);
          row.value = cell.Value(q.by);
          if (keys) {
            AppendDoubleKey(row.value, /*descending=*/true, &row.skey);
            AppendCoordKey(cell.coords, &row.skey);
          }
          return row;
        });
        if (!keep) break;
      }
      return Status::OK();
    }

    case Mode::kRollup:
    case Mode::kDrilldown: {
      auto ids = p.mode == Mode::kRollup
                     ? view.ParentsOf(cube::CellCoordinates{p.sa, p.ca})
                     : view.ChildrenOf(cube::CellCoordinates{p.sa, p.ca});
      for (cube::CubeView::CellId id : ids) {
        ++*scanned;
        if (ticker.Tick()) return expired();
        const cube::CubeCell& cell = view.cell(id);
        if (cell.ghost) continue;
        if (PassesWhere(cell, q) && !feed([&] {
              ResultRow row = MakeRow(view, cell);
              if (keys) {
                if (p.mode == Mode::kRollup) {
                  // Parents stream in item-removal order (SA items
                  // ascending, then CA items ascending; absent parents
                  // skipped): the key is the removal ordinal itself.
                  fpm::Itemset removed_sa = p.sa.Minus(cell.coords.sa);
                  if (!removed_sa.empty()) {
                    row.skey.push_back('\x00');
                    AppendItemKey(removed_sa[0], &row.skey);
                  } else {
                    fpm::Itemset removed_ca = p.ca.Minus(cell.coords.ca);
                    row.skey.push_back('\x01');
                    AppendItemKey(removed_ca.empty() ? 0 : removed_ca[0],
                                  &row.skey);
                  }
                } else {
                  AppendCoordKey(cell.coords, &row.skey);
                }
              }
              return row;
            })) {
          break;
        }
      }
      return Status::OK();
    }

    case Mode::kFindings: {
      // The explorer's findings walks: a prefix of the view's per-index
      // list, or every cell evaluated and sorted when the list cannot
      // answer (cube/explorer.h). Ghosts are never findings.
      auto tick = [&ticker] { return !ticker.Tick(); };
      if (q.verb == Verb::kSurprises) {
        cube::VisitSurprises(
            view, q.by, q.threshold, p.explorer, scanned,
            [&](const cube::SurpriseFinding& f) {
              return feed([&] {
                ResultRow row = MakeRow(view, *f.cell);
                row.value = f.value;
                row.aux = f.delta;
                row.aux2 = f.best_parent_value;
                if (keys) {
                  AppendDoubleKey(f.delta, /*descending=*/true, &row.skey);
                  AppendCoordKey(f.cell->coords, &row.skey);
                }
                return row;
              });
            },
            tick);
      } else {
        cube::VisitReversals(
            view, q.by, q.threshold, p.explorer, scanned,
            [&](const cube::GranularityReversal& r) {
              return feed([&] {
                ResultRow row = MakeRow(view, *r.parent);
                row.value = r.parent_value;
                row.aux = r.min_child_value;
                row.aux2 = static_cast<double>(r.children.size());
                row.tag = r.children_higher ? "masked" : "inflated";
                if (keys) {
                  AppendDoubleKey(cube::ReversalGap(r), /*descending=*/true,
                                  &row.skey);
                  AppendCoordKey(r.parent->coords, &row.skey);
                }
                return row;
              });
            },
            tick);
      }
      if (ticker.expired()) return expired();
      return Status::OK();
    }
  }
  return Status::Internal("unhandled query mode");
}

/// Streams one prepared query into a sink: Begin, the page's rows, and
/// pagination accounting. Never calls sink.Finish (see ExecuteToSink).
Status EmitPrepared(const cube::CubeView& view, uint64_t version,
                    const Prepared& p, const QueryContext& ctx, RowSink& sink,
                    StreamStats* stats) {
  const Query& q = *p.query;
  stats->begun = true;
  if (!sink.Begin(HeaderFor(q, version))) {
    stats->aborted = true;
    stats->exhausted = false;
    return Status::OK();
  }

  const uint64_t offset = q.offset.value_or(0);
  Pager pager(offset, q.limit, sink);
  DeadlineTicker ticker(ctx, kDeadlineStride);
  uint64_t scanned = 0;
  Status status;

  if (q.order) {
    // Ordered answers need every stream row before the sort; pagination
    // slices the sorted vector. No scan pushdown is possible here.
    std::vector<ResultRow> rows;
    trace::Span walk_span(ctx.trace, SpanNameFor(p.mode));
    status = WalkRows(view, p, ticker, ctx.merge_keys, &scanned,
                      [&rows](auto&& make) {
                        rows.push_back(make());
                        return true;
                      });
    walk_span.End();
    if (status.ok()) {
      trace::Span sort_span(ctx.trace, "sort");
      SortRows(*q.order, &rows);
      sort_span.End();
      if (ctx.merge_keys) PrefixOrderKeys(*q.order, &rows);
      // The pager learns about non-exhaustion by being offered the first
      // row past the page, so no special casing is needed here.
      for (ResultRow& row : rows) {
        if (!pager.Offer([&row]() -> ResultRow&& { return std::move(row); })) {
          break;
        }
      }
    }
  } else {
    // The unordered walk streams straight into the sink, so this span
    // covers index traversal AND row delivery (serialisation pushback
    // included) — which is exactly the time a client waits for rows.
    trace::Span walk_span(ctx.trace, SpanNameFor(p.mode));
    status = WalkRows(view, p, ticker, ctx.merge_keys, &scanned,
                      [&pager](auto&& make) { return pager.Offer(make); });
  }

  stats->cells_scanned = scanned;
  stats->rows_emitted = pager.emitted();
  stats->aborted = pager.aborted();
  stats->exhausted = !pager.more() && !pager.aborted();
  stats->next_offset = offset + pager.emitted();
  return status;
}

}  // namespace

Result<fpm::Itemset> Executor::ResolveItems(
    const std::vector<AttrValue>& constraints,
    relational::AttributeKind kind) const {
  const relational::ItemCatalog& catalog = view_.catalog();
  std::vector<fpm::ItemId> items;
  items.reserve(constraints.size());
  for (const AttrValue& av : constraints) {
    const fpm::ItemId item = catalog.Find(av.attr, av.value);
    if (item == fpm::kInvalidItem) {
      if (!catalog.HasAttribute(av.attr)) {
        return Status::NotFound("unknown attribute '" + av.attr + "'");
      }
      return Status::NotFound("unknown value '" + av.value +
                              "' for attribute '" + av.attr + "'");
    }
    const relational::ItemInfo& info = catalog.info(item);
    if (info.kind != kind) {
      const char* axis =
          info.kind == relational::AttributeKind::kSegregation ? "sa" : "ca";
      return Status::InvalidArgument(
          "attribute '" + av.attr + "' is a " +
          (info.kind == relational::AttributeKind::kSegregation
               ? "segregation"
               : "context") +
          " attribute; it belongs in " + axis + "=");
    }
    items.push_back(item);
  }
  return fpm::Itemset(std::move(items));
}

namespace {

/// Resolves one query's coordinates and classifies its index path.
Prepared PrepareQuery(const Executor& executor, const Query& query) {
  Prepared p;
  p.query = &query;
  auto sa = executor.ResolveItems(query.sa,
                                  relational::AttributeKind::kSegregation);
  if (!sa.ok()) {
    p.error = sa.status();
    return p;
  }
  p.sa = std::move(sa).value();
  auto ca = executor.ResolveItems(query.ca,
                                  relational::AttributeKind::kContext);
  if (!ca.ok()) {
    p.error = ca.status();
    return p;
  }
  p.ca = std::move(ca).value();
  p.explorer = ExplorerOptionsFor(query);
  p.mode = ClassifyQuery(query);
  return p;
}

}  // namespace

Result<QueryResult> Executor::Execute(const Query& query,
                                      const QueryContext& ctx) const {
  VectorSink sink;
  StreamStats stats;
  Status status = ExecuteToSink(query, ctx, sink, &stats);
  if (!status.ok()) return status;
  ResultTrailer trailer;
  trailer.cells_scanned = stats.cells_scanned;
  sink.Finish(trailer);
  sink.SetPagination(stats.exhausted, stats.next_offset);
  return sink.TakeResult();
}

Status Executor::ExecuteToSink(const Query& query, const QueryContext& ctx,
                               RowSink& sink, StreamStats* stats) const {
  StreamStats local;
  if (stats == nullptr) stats = &local;
  *stats = StreamStats{};

  trace::Span resolve_span(ctx.trace, "resolve");
  Prepared p = PrepareQuery(*this, query);
  resolve_span.End();
  if (!p.error.ok()) return p.error;
  if (ctx.Expired()) {
    return Status::DeadlineExceeded(
        "query deadline expired before execution completed");
  }
  return EmitPrepared(view_, version_, p, ctx, sink, stats);
}

}  // namespace query
}  // namespace scube
