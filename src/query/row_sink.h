// RowSink: the streaming read path of SCubeQL answers.
//
// Instead of materialising a full QueryResult and rendering it into one
// string, the executor pushes rows into a RowSink one at a time:
//
//     sink.Begin(header)        once, before any row
//     sink.Row(row) -> bool     per row; false = stop (backpressure,
//                               page filled, client gone)
//     sink.Finish(trailer)      once, after the last row
//
// Begin and Row are called by the row *producer* (Executor::ExecuteToSink,
// ReplayResult); Finish is called by the *driver* (QueryService, the
// serialisation helpers) because only it knows the trailer — the resume
// cursor needs the cube name and pinned version, which the executor never
// sees.
//
// Three sink families cover every consumer:
//   VectorSink            materialises the stream back into a QueryResult
//                         (the pre-streaming behaviour; feeds the cache),
//   JsonWriter/CsvWriter  render incrementally through a write callback in
//                         O(row) memory — the chunked HTTP path. ToJson and
//                         ToCsv replay through these writers, so streamed
//                         and materialised renderings are byte-identical
//                         by construction.
//
// Cursors: an answer page (LIMIT n OFFSET k) that stops before the row
// stream is exhausted yields an opaque resume token encoding
// (cube name, sealed version, statement hash, resume positions). Resuming
// against the same name@version snapshot continues the deterministic row
// stream exactly where the page ended, so stitched pages equal the
// unpaginated answer. Nodes and scatter routers share the one token layout.

#ifndef SCUBE_QUERY_ROW_SINK_H_
#define SCUBE_QUERY_ROW_SINK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "query/query_result.h"

namespace scube {
namespace query {

/// \brief Receives one answer as header -> rows -> trailer.
class RowSink {
 public:
  virtual ~RowSink() = default;

  /// Called once before any row. Returning false aborts the stream.
  virtual bool Begin(const ResultHeader& header) = 0;

  /// Called once per row. Returning false stops the producer (the scan
  /// terminates early); Finish still follows.
  virtual bool Row(const ResultRow& row) = 0;

  /// Rvalue overload: producers hand freshly built rows here, so sinks
  /// that store rows (VectorSink, the cache tee) can move the strings
  /// instead of copying. Defaults to the const& version — renderers that
  /// only read the row need not care.
  virtual bool Row(ResultRow&& row) {
    return Row(static_cast<const ResultRow&>(row));
  }

  /// Called once after the last row (see file comment for who calls it).
  virtual void Finish(const ResultTrailer& trailer) = 0;
};

/// \brief Materialises the stream into a QueryResult — the streaming
/// path's answer is exactly the pre-streaming materialised answer. The
/// kept rows drop their ResultRow::texts, because cached and buffered
/// answers outlive the snapshot those point into.
class VectorSink : public RowSink {
 public:
  bool Begin(const ResultHeader& header) override;
  bool Row(const ResultRow& row) override;
  bool Row(ResultRow&& row) override;
  void Finish(const ResultTrailer& trailer) override;

  const QueryResult& result() const { return result_; }
  QueryResult TakeResult() { return std::move(result_); }

  /// Copies pagination plumbing (exhausted/next_offset) into the result;
  /// the producer's StreamStats carry them, not the trailer.
  void SetPagination(bool exhausted, uint64_t next_offset) {
    result_.exhausted = exhausted;
    result_.next_offset = next_offset;
  }

 private:
  QueryResult result_;
};

/// \brief Base for incremental text renderers. Bytes go to `write`; a
/// false return (client disconnected, buffer refused) aborts the stream:
/// Row starts returning false and further output is suppressed.
///
/// Rows render into `line_`, one buffer per writer: Row clears it, appends
/// the whole row (a row's sealed index texts copied, other numbers through
/// std::to_chars, labels escaped in place) and calls Write once. After the
/// first rows the buffer has grown to the longest row and rendering
/// allocates nothing. A writer renders one answer; the buffer carries no
/// state from one row to the next.
class ResultWriter : public RowSink {
 public:
  /// Sinks bytes; false = stop producing.
  using WriteFn = std::function<bool(std::string_view)>;

  explicit ResultWriter(WriteFn write) : write_(std::move(write)) {}

  bool ok() const { return ok_; }

 protected:
  /// Forwards to the write callback, latching failure.
  bool Write(std::string_view data) {
    if (ok_ && !write_(data)) ok_ = false;
    return ok_;
  }

  /// The reused row buffer (see the class comment).
  std::string line_;

 private:
  WriteFn write_;
  bool ok_ = true;
};

/// \brief Streams the ToJson rendering:
/// {"verb":...,"by":...,"rows":[R,...],"cells_scanned":N[,"next_cursor":C]}.
/// Doubles carry 6 significant digits (printf "%.6g"); the indexes and the
/// value column copy the row's sealed texts when it carries them.
class JsonWriter : public ResultWriter {
 public:
  using ResultWriter::ResultWriter;

  bool Begin(const ResultHeader& header) override;
  bool Row(const ResultRow& row) override;
  void Finish(const ResultTrailer& trailer) override;

 private:
  ResultHeader header_;
  bool first_row_ = true;
};

/// \brief Streams the ToCsv rendering: header line, one line per row, and
/// a trailing "# next_cursor: ..." comment when a resume token is set.
/// Doubles carry 6 significant digits, as in JsonWriter.
class CsvWriter : public ResultWriter {
 public:
  using ResultWriter::ResultWriter;

  bool Begin(const ResultHeader& header) override;
  bool Row(const ResultRow& row) override;
  void Finish(const ResultTrailer& trailer) override;

 private:
  ResultHeader header_;
};

/// Replays a materialised result through a sink: Begin, each row (stopping
/// early if the sink asks), then Finish — this is how cache hits answer
/// through the same interface as live streams. The trailer defaults to the
/// result's own; the serving layer overrides it to stamp a freshly encoded
/// resume cursor. When the sink stops the replay early (`aborted`, if
/// given, reports this), the trailer's next_cursor is suppressed: a
/// partial stream has no valid resume point — the same rule the live
/// execution path applies. Returns the number of rows delivered.
uint64_t ReplayResult(const QueryResult& result, RowSink& sink,
                      const ResultTrailer* trailer_override = nullptr,
                      bool* aborted = nullptr);

/// \brief Pages an unpaginated row stream into a sink: skips `offset`
/// rows, delivers up to `limit`, and learns that more rows remain when the
/// producer offers one past the page. Rows arrive as factories, so skipped
/// and beyond-page rows never pay row construction (label copies): a cursor
/// page at offset k walks but does not materialise the first k rows. The
/// executor pages its walks with it and the scatter router its merge, so a
/// node and a router agree on where a page ends:
///   - a row offered past the page is not taken (the factory never runs);
///   - a skipped row is taken, so it counts toward the resume position;
///   - an aborted page (the sink refused a row) has no resume point.
class Pager {
 public:
  Pager(uint64_t offset, std::optional<uint64_t> limit, RowSink& sink)
      : offset_(offset), limit_(limit), sink_(sink) {}

  /// Offers the next stream row. False = the producer should stop.
  template <typename RowFactory>
  bool Offer(RowFactory&& make) {
    if (skipped_ < offset_) {
      ++skipped_;
      return true;
    }
    if (limit_ && emitted_ >= *limit_) {
      more_ = true;  // a row exists beyond the page: not exhausted
      return false;
    }
    if (!sink_.Row(make())) {
      aborted_ = true;
      return false;
    }
    ++emitted_;
    return true;
  }

  bool aborted() const { return aborted_; }
  bool more() const { return more_; }
  uint64_t emitted() const { return emitted_; }

 private:
  uint64_t offset_;
  std::optional<uint64_t> limit_;
  RowSink& sink_;
  uint64_t skipped_ = 0;
  uint64_t emitted_ = 0;
  bool more_ = false;
  bool aborted_ = false;
};

/// \brief Decoded resume token: which snapshot the stream was walking, a
/// fingerprint of the statement that produced it (so a cursor cannot be
/// replayed against a different query), and where each row stream resumes.
/// A node reads one stream, so its cursor holds one position: the absolute
/// row offset into the unpaginated answer. A scatter router holds one per
/// shard: how many rows of that shard's stream the client has consumed,
/// skipped offsets included; TOPK with ORDER BY pages the re-sorted
/// selection instead and keeps its sorted position in slot 0. A one-shard
/// partition holds every cell and no ghost, so a node and a one-shard
/// router resume each other's cursors.
struct Cursor {
  std::string cube;                ///< cube name
  uint64_t version = 0;            ///< sealed version the stream is pinned to
  uint64_t query_hash = 0;         ///< CursorQueryHash of the originating query
  std::vector<uint64_t> positions; ///< resume position per row stream
};

/// Fingerprint of the parts of a query that define its row stream: the
/// canonical text with the pagination clauses (LIMIT/OFFSET) and the FROM
/// pin stripped — those are carried by the cursor itself, and a client may
/// legitimately change the page size between pages. Deterministic across
/// processes (FNV-1a, not std::hash).
uint64_t CursorQueryHash(const Query& query);

/// Renders a cursor as an opaque URL-safe token: the base64url of
/// `scq1|version|p0;p1;...|hash|cube`.
std::string EncodeCursor(const Cursor& cursor);

/// Parses a token; InvalidArgument when malformed or not one of ours.
Result<Cursor> DecodeCursor(std::string_view token);

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_ROW_SINK_H_
