// The shard wire format: how a shard scubed streams one answer to the
// scatter-gather router (POST /query?stream=1&format=wire).
//
// Line-oriented, escaped TSV, one event per line:
//
//   H \t version \t verb \t by \t has_value \t has_aux \t has_aux2
//     \t has_tag \t aux_name \t aux2_name \t tag_name
//   R \t skey-hex \t sa \t ca \t t \t m \t units \t defined
//     \t idx0..idx5 \t value \t aux \t aux2 \t tag
//   T \t cells_scanned \t next_cursor
//   S \t code \t message \t version \t cache_hit \t rows
//
// Every double travels as the hex of its IEEE-754 bit pattern, so the
// router re-renders rows through the very same JsonWriter/CsvWriter a
// single-node server uses and the output is byte-identical — no decimal
// round-trip anywhere. The skey column is the row's order-preserving
// merge key (query/merge_key.h), hex-encoded; it is what the router's
// k-way merge compares. Free-text fields escape \, tab, CR and LF.
//
// The H line's version is the sealed cube version the shard executes
// (ResultHeader::version). The router reads every shard's H line before
// it emits a row, so it checks version agreement, or a pinned version,
// from the stream heads alone; the S line repeats the version at the end.
//
// H/R/T are written by WireWriter (a ResultWriter like Json/CsvWriter);
// each R line is appended into the writer's reused row buffer (integers
// through std::to_chars, doubles as 16 table-driven hex digits, labels
// escaped in place) and written once. The final S line is appended by the
// HTTP handler once the execution outcome (status, version, cache_hit) is
// known. Errors caught before Begin never enter the stream: they are plain
// buffered HTTP errors.

#ifndef SCUBE_QUERY_WIRE_FORMAT_H_
#define SCUBE_QUERY_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "query/query_result.h"
#include "query/row_sink.h"

namespace scube {
namespace query {

/// \brief Renders the wire stream's H/R/T lines (the shard side).
class WireWriter : public ResultWriter {
 public:
  using ResultWriter::ResultWriter;

  bool Begin(const ResultHeader& header) override;
  bool Row(const ResultRow& row) override;
  void Finish(const ResultTrailer& trailer) override;
};

/// The closing S line (status, shard cube version, cache_hit, row count);
/// appended by the handler after execution, newline included.
std::string WireStatusLine(StatusCode code, const std::string& message,
                           uint64_t version, bool cache_hit, uint64_t rows);

/// \brief One parsed wire line (the router side).
struct WireEvent {
  enum class Kind { kHeader, kRow, kTrailer, kStatus };
  Kind kind = Kind::kHeader;

  ResultHeader header;  ///< kHeader
  ResultRow row;        ///< kRow (skey hex-decoded back to bytes)

  // kTrailer
  uint64_t cells_scanned = 0;
  std::string next_cursor;

  // kStatus
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint64_t version = 0;
  bool cache_hit = false;
  uint64_t rows = 0;
};

/// Parses one wire line (without its trailing newline). ParseError when
/// the line is not a well-formed H/R/T/S event.
Result<WireEvent> ParseWireLine(std::string_view line);

/// Escapes a free-text field for one TSV cell (\, tab, CR, LF).
void AppendWireEscaped(std::string_view text, std::string* out);

/// Hex of a double's IEEE-754 bit pattern ("3ff0000000000000").
std::string WireDouble(double v);

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_WIRE_FORMAT_H_
