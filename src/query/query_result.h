// QueryResult: the self-contained, serialisable answer to one SCubeQL
// query. Rows copy cell payloads (labels + counts + the six indexes) out of
// the cube snapshot so results outlive it — they can sit in the LRU cache
// while newer cube versions are published. A streamed row also points at
// its cell's index texts in the snapshot; the VectorSink that materialises
// a result drops that pointer.
//
// The streaming read path (query/row_sink.h) decomposes an answer into
// ResultHeader -> ResultRow* -> ResultTrailer; QueryResult is exactly that
// protocol materialised, so a cached QueryResult replays through any
// RowSink byte-identically to a live streamed execution. The header names
// the sealed cube version the rows were computed from, so a replay names
// it too.

#ifndef SCUBE_QUERY_QUERY_RESULT_H_
#define SCUBE_QUERY_QUERY_RESULT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "indexes/segregation_index.h"
#include "query/ast.h"

namespace scube {
namespace cube {
class IndexTexts;
}  // namespace cube

namespace query {

/// \brief One result row: a cube cell plus verb-specific extras.
struct ResultRow {
  std::string sa;  ///< subgroup label, "*" for the empty itemset
  std::string ca;  ///< context label, "*" for the empty itemset

  uint64_t t = 0;      ///< context population
  uint64_t m = 0;      ///< minority population
  uint32_t units = 0;  ///< organisational units in the context

  /// Whether the six indexes are defined for this cell.
  bool defined = false;
  std::array<double, indexes::kNumIndexKinds> indexes{};

  /// The cell's index texts in the sealed view the executor walked
  /// (CubeView::Texts): the JSON/CSV writers copy them instead of
  /// formatting `indexes`, and `value`, which is always indexes[by] when
  /// the header has it. Null for rows decoded from the wire; valid only
  /// while that view lives, so VectorSink clears it in the rows it keeps.
  const cube::IndexTexts* texts = nullptr;

  /// Verb-specific columns (meaning recorded in the header):
  ///   TOPK              value = ranked index value
  ///   SURPRISES         value = cell value, aux = delta vs best parent
  ///   REVERSALS         value = parent value, aux = boundary child value,
  ///                     aux2 = number of children, tag = masked/inflated
  double value = 0.0;
  double aux = 0.0;
  double aux2 = 0.0;
  std::string tag;

  /// Order-preserving merge key (query/merge_key.h): lexicographic order
  /// of keys equals the executor's emission order for the query's verb.
  /// Populated only when QueryContext::merge_keys is set (shard-side wire
  /// responses); never rendered by the JSON/CSV writers.
  std::string skey;
};

/// \brief Everything known about an answer *before* its first row: the
/// cube version, the verb, the ranked index and the verb-specific column
/// layout. Streamed first so writers can emit their header bytes before
/// any row exists.
struct ResultHeader {
  /// The sealed cube version the rows come from, stamped by the Executor
  /// of that version (0 for an executor outside a CubeStore). The wire H
  /// line carries it, so the scatter router learns each shard's version
  /// from the stream head; the JSON and CSV writers do not render it.
  uint64_t version = 0;

  Verb verb = Verb::kSlice;
  indexes::IndexKind by = indexes::IndexKind::kDissimilarity;

  /// Which verb-specific columns are populated, and their display names.
  bool has_value = false;
  bool has_aux = false;
  bool has_aux2 = false;
  bool has_tag = false;
  std::string aux_name;
  std::string aux2_name;
  std::string tag_name;
};

/// \brief Everything known only *after* the last row: scan accounting and
/// the pagination resume token. Streamed last (the trailing HTTP chunk).
struct ResultTrailer {
  /// Cells scanned to produce the result (scan accounting).
  uint64_t cells_scanned = 0;

  /// Opaque resume token (see query/row_sink.h EncodeCursor); empty when
  /// the row stream is exhausted — there is no further page.
  std::string next_cursor;
};

/// \brief A complete query answer: the streaming protocol, materialised.
struct QueryResult : ResultHeader {
  std::vector<ResultRow> rows;

  /// Cells scanned to produce the result (scan accounting).
  uint64_t cells_scanned = 0;

  /// Opaque resume token for the next page; empty when exhausted. Stamped
  /// by the serving layer (it knows the cube name and pinned version).
  std::string next_cursor;

  /// Pagination plumbing (not serialised): whether the underlying row
  /// stream ended, and the absolute row offset the next page starts at.
  /// The service turns these into `next_cursor` tokens.
  bool exhausted = true;
  uint64_t next_offset = 0;
};

/// CSV rendering: header + one line per row; indexes "" when undefined.
/// A non-empty next_cursor appends a trailing "# next_cursor: ..." comment.
/// Implemented by replaying the result through a CsvWriter, so it is
/// byte-identical to the streaming path by construction.
std::string ToCsv(const QueryResult& result);

/// JSON rendering: {"verb":...,"by":...,"rows":[...],"cells_scanned":N}
/// plus "next_cursor" when one is set. Stable key order; undefined index
/// values serialise as null. Implemented by replaying the result through a
/// JsonWriter, so it is byte-identical to the streaming path by
/// construction.
std::string ToJson(const QueryResult& result);

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_QUERY_RESULT_H_
