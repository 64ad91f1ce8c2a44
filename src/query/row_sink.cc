#include "query/row_sink.h"

#include <array>
#include <cstdio>

#include "common/csv.h"
#include "common/hashing.h"
#include "common/string_util.h"
#include "cube/cell.h"

namespace scube {
namespace query {

namespace {

/// `"<index name>":` per index kind, indexed by IndexKind and quoted
/// once per process.
const std::array<std::string, indexes::kNumIndexKinds>& QuotedIndexKeys() {
  static const std::array<std::string, indexes::kNumIndexKinds> keys = [] {
    std::array<std::string, indexes::kNumIndexKinds> quoted;
    for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
      std::string& key = quoted[static_cast<size_t>(kind)];
      AppendJsonQuoted(indexes::IndexKindToString(kind), &key);
      key.push_back(':');
    }
    return quoted;
  }();
  return keys;
}

/// Appends `value`, which is the row cell's index `kind`: its sealed text
/// when the row carries one.
void AppendIndexValue(const ResultRow& row, indexes::IndexKind kind,
                      double value, std::string* out) {
  if (row.texts != nullptr) {
    out->append((*row.texts)[kind]);
  } else {
    AppendDouble6g(value, out);
  }
}

}  // namespace

// --- VectorSink -------------------------------------------------------------

bool VectorSink::Begin(const ResultHeader& header) {
  static_cast<ResultHeader&>(result_) = header;
  return true;
}

bool VectorSink::Row(const ResultRow& row) {
  result_.rows.push_back(row);
  result_.rows.back().texts = nullptr;  // the rows outlive the view
  return true;
}

bool VectorSink::Row(ResultRow&& row) {
  result_.rows.push_back(std::move(row));
  result_.rows.back().texts = nullptr;
  return true;
}

void VectorSink::Finish(const ResultTrailer& trailer) {
  result_.cells_scanned = trailer.cells_scanned;
  result_.next_cursor = trailer.next_cursor;
}

// --- JsonWriter -------------------------------------------------------------

bool JsonWriter::Begin(const ResultHeader& header) {
  header_ = header;
  std::string out = "{\"verb\":";
  AppendJsonQuoted(VerbToString(header.verb), &out);
  out += ",\"by\":";
  AppendJsonQuoted(indexes::IndexKindToString(header.by), &out);
  out += ",\"rows\":[";
  return Write(out);
}

bool JsonWriter::Row(const ResultRow& row) {
  std::string& out = line_;
  out.clear();
  if (!first_row_) out += ',';
  first_row_ = false;
  out += "{\"sa\":";
  AppendJsonQuoted(row.sa, &out);
  out += ",\"ca\":";
  AppendJsonQuoted(row.ca, &out);
  out += ",\"T\":";
  AppendUint(row.t, &out);
  out += ",\"M\":";
  AppendUint(row.m, &out);
  out += ",\"units\":";
  AppendUint(row.units, &out);
  out += ",\"indexes\":{";
  const auto& keys = QuotedIndexKeys();
  bool first = true;
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    if (!first) out += ',';
    first = false;
    out += keys[static_cast<size_t>(kind)];
    if (row.defined) {
      AppendIndexValue(row, kind, row.indexes[static_cast<size_t>(kind)],
                       &out);
    } else {
      out += "null";
    }
  }
  out += '}';
  if (header_.has_value) {
    out += ",\"value\":";
    AppendIndexValue(row, header_.by, row.value, &out);
  }
  if (header_.has_aux) {
    out += ',';
    AppendJsonQuoted(header_.aux_name, &out);
    out += ':';
    AppendDouble6g(row.aux, &out);
  }
  if (header_.has_aux2) {
    out += ',';
    AppendJsonQuoted(header_.aux2_name, &out);
    out += ':';
    AppendDouble6g(row.aux2, &out);
  }
  if (header_.has_tag) {
    out += ',';
    AppendJsonQuoted(header_.tag_name, &out);
    out += ':';
    AppendJsonQuoted(row.tag, &out);
  }
  out += '}';
  return Write(out);
}

void JsonWriter::Finish(const ResultTrailer& trailer) {
  std::string out = "],\"cells_scanned\":";
  AppendUint(trailer.cells_scanned, &out);
  if (!trailer.next_cursor.empty()) {
    out += ",\"next_cursor\":";
    AppendJsonQuoted(trailer.next_cursor, &out);
  }
  out += '}';
  Write(out);
}

// --- CsvWriter --------------------------------------------------------------

bool CsvWriter::Begin(const ResultHeader& header) {
  header_ = header;
  std::string out = "sa,ca,T,M,units";
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    out += ",";
    out += indexes::IndexKindToString(kind);
  }
  if (header.has_value) out += ",value";
  if (header.has_aux) out += "," + header.aux_name;
  if (header.has_aux2) out += "," + header.aux2_name;
  if (header.has_tag) out += "," + header.tag_name;
  out += '\n';
  return Write(out);
}

bool CsvWriter::Row(const ResultRow& row) {
  // Fields are quoted by the repo's CSV writer (the query CsvWriter
  // shadows its name here), so every rendering parses back through
  // CsvReader — which ends a record at an unquoted carriage return.
  std::string& out = line_;
  out.clear();
  scube::CsvWriter::AppendEscapedField(row.sa, ',', &out);
  out += ',';
  scube::CsvWriter::AppendEscapedField(row.ca, ',', &out);
  out += ',';
  AppendUint(row.t, &out);
  out += ',';
  AppendUint(row.m, &out);
  out += ',';
  AppendUint(row.units, &out);
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    out += ",";
    if (row.defined) {
      AppendIndexValue(row, kind, row.indexes[static_cast<size_t>(kind)],
                       &out);
    }
  }
  if (header_.has_value) {
    out += ',';
    AppendIndexValue(row, header_.by, row.value, &out);
  }
  if (header_.has_aux) {
    out += ',';
    AppendDouble6g(row.aux, &out);
  }
  if (header_.has_aux2) {
    out += ',';
    AppendDouble6g(row.aux2, &out);
  }
  if (header_.has_tag) {
    out += ',';
    scube::CsvWriter::AppendEscapedField(row.tag, ',', &out);
  }
  out += '\n';
  return Write(out);
}

void CsvWriter::Finish(const ResultTrailer& trailer) {
  if (!trailer.next_cursor.empty()) {
    Write("# next_cursor: " + trailer.next_cursor + "\n");
  }
}

// --- replay -----------------------------------------------------------------

uint64_t ReplayResult(const QueryResult& result, RowSink& sink,
                      const ResultTrailer* trailer_override, bool* aborted) {
  uint64_t delivered = 0;
  bool stopped = !sink.Begin(result);
  if (!stopped) {
    for (const ResultRow& row : result.rows) {
      if (!sink.Row(row)) {
        stopped = true;
        break;
      }
      ++delivered;
    }
  }
  ResultTrailer trailer;
  if (trailer_override != nullptr) {
    trailer = *trailer_override;
  } else {
    trailer.cells_scanned = result.cells_scanned;
    trailer.next_cursor = result.next_cursor;
  }
  // A partially delivered stream has no valid resume point.
  if (stopped) trailer.next_cursor.clear();
  sink.Finish(trailer);
  if (aborted != nullptr) *aborted = stopped;
  return delivered;
}

// --- cursors ----------------------------------------------------------------

namespace {
constexpr char kCursorMagic[] = "scq1";
constexpr char kCursorSep = '|';
constexpr char kPositionSep = ';';

}  // namespace

uint64_t CursorQueryHash(const Query& query) {
  // The stream identity excludes pagination (carried by the cursor) and
  // the FROM pin (validated against the cursor's own cube/version).
  Query stripped = query;
  stripped.cube.clear();
  stripped.cube_version.reset();
  stripped.limit.reset();
  stripped.offset.reset();
  // FNV-1a is stable across processes and library versions (std::hash
  // is not), so a cursor survives a server restart against the same cubes.
  return HashBytes(Canonical(stripped), kFnvTruncatedBasis);
}

std::string EncodeCursor(const Cursor& cursor) {
  // The positions join with ';' so '|' stays the field separator, and the
  // cube name goes LAST: it is the only field that may itself contain the
  // separator, so the decoder re-joins the tail instead of rejecting. With
  // one position this is the original single-node layout, byte for byte.
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(cursor.query_hash));
  std::string plain = std::string(kCursorMagic) + kCursorSep +
                      std::to_string(cursor.version) + kCursorSep;
  for (size_t i = 0; i < cursor.positions.size(); ++i) {
    if (i > 0) plain += kPositionSep;
    plain += std::to_string(cursor.positions[i]);
  }
  plain += kCursorSep;
  plain += hash_hex;
  plain += kCursorSep;
  plain += cursor.cube;
  std::string token = Base64Encode(plain);
  // URL-safe alphabet (RFC 4648 base64url): tokens travel as ?cursor=
  // query parameters, where '+' would decode to a space and '/' can
  // confuse path-aware middleware.
  for (char& c : token) {
    if (c == '+') c = '-';
    if (c == '/') c = '_';
  }
  return token;
}

Result<Cursor> DecodeCursor(std::string_view token) {
  std::string standard(token);
  for (char& c : standard) {
    if (c == '-') c = '+';
    if (c == '_') c = '/';
  }
  auto plain = Base64Decode(standard);
  if (!plain.ok()) {
    return Status::InvalidArgument("malformed cursor: not base64");
  }
  std::vector<std::string> parts = Split(*plain, kCursorSep);
  if (parts.size() < 5 || parts[0] != kCursorMagic) {
    return Status::InvalidArgument("malformed cursor: bad layout");
  }
  Cursor cursor;
  // Re-join the tail: the cube name may legitimately contain '|'.
  cursor.cube = parts[4];
  for (size_t i = 5; i < parts.size(); ++i) {
    cursor.cube += kCursorSep;
    cursor.cube += parts[i];
  }
  if (cursor.cube.empty()) {
    return Status::InvalidArgument("malformed cursor: empty cube name");
  }
  auto version = ParseInt64(parts[1]);
  if (!version.ok() || *version <= 0) {
    return Status::InvalidArgument("malformed cursor: bad version");
  }
  cursor.version = static_cast<uint64_t>(*version);
  for (const std::string& field : Split(parts[2], kPositionSep)) {
    auto position = ParseInt64(field);
    if (!position.ok() || *position < 0) {
      return Status::InvalidArgument("malformed cursor: bad position");
    }
    cursor.positions.push_back(static_cast<uint64_t>(*position));
  }
  // The hash field is 16 hex digits (full uint64 range).
  if (parts[3].size() != 16) {
    return Status::InvalidArgument("malformed cursor: bad query hash");
  }
  auto hash = ParseHexU64(parts[3]);
  if (!hash.ok()) {
    return Status::InvalidArgument("malformed cursor: bad query hash");
  }
  cursor.query_hash = *hash;
  return cursor;
}

}  // namespace query
}  // namespace scube
