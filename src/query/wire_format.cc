#include "query/wire_format.h"

#include <bit>
#include <charconv>
#include <system_error>
#include <vector>

#include "common/string_util.h"

namespace scube {
namespace query {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void AppendHex(std::string_view bytes, std::string* out) {
  for (unsigned char c : bytes) {
    out->push_back(kHexDigits[c >> 4]);
    out->push_back(kHexDigits[c & 0xf]);
  }
}

/// Appends the 16 hex digits of a double's IEEE-754 bit pattern.
void AppendWireDouble(double v, std::string* out) {
  uint64_t bits = std::bit_cast<uint64_t>(v);
  char hex[16];
  for (int i = 15; i >= 0; --i, bits >>= 4) hex[i] = kHexDigits[bits & 0xf];
  out->append(hex, sizeof(hex));
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool DecodeHex(std::string_view hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

bool UnescapeWire(std::string_view field, std::string* out) {
  out->clear();
  out->reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    char c = field[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= field.size()) return false;
    switch (field[i]) {
      case '\\': out->push_back('\\'); break;
      case 't': out->push_back('\t'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      default: return false;
    }
  }
  return true;
}

/// Splits a raw wire line on (unescaped) tabs. Escaped tabs are "\t" two-
/// character sequences, so a plain split is correct.
std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      fields.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

bool ParseWireDouble(std::string_view field, double* out) {
  auto bits = ParseHexU64(field);
  if (!bits.ok()) return false;
  *out = std::bit_cast<double>(*bits);
  return true;
}

/// The whole uint64 range the writer emits: plain decimal digits only.
bool ParseWireU64(std::string_view field, uint64_t* out) {
  const char* end = field.data() + field.size();
  auto [ptr, error] = std::from_chars(field.data(), end, *out);
  return error == std::errc() && ptr == end;
}

bool ParseWireBool(std::string_view field, bool* out) {
  if (field == "1") { *out = true; return true; }
  if (field == "0") { *out = false; return true; }
  return false;
}

Status BadLine(const char* what) {
  return Status::ParseError(std::string("malformed wire line: ") + what);
}

}  // namespace

void AppendWireEscaped(std::string_view text, std::string* out) {
  size_t plain = 0;  // start of the run not yet copied
  for (size_t i = 0; i < text.size(); ++i) {
    const char* escaped = nullptr;
    switch (text[i]) {
      case '\\': escaped = "\\\\"; break;
      case '\t': escaped = "\\t"; break;
      case '\n': escaped = "\\n"; break;
      case '\r': escaped = "\\r"; break;
      default: continue;
    }
    out->append(text.data() + plain, i - plain);
    out->append(escaped);
    plain = i + 1;
  }
  out->append(text.data() + plain, text.size() - plain);
}

std::string WireDouble(double v) {
  std::string out;
  AppendWireDouble(v, &out);
  return out;
}

bool WireWriter::Begin(const ResultHeader& header) {
  std::string line = "H\t";
  AppendUint(header.version, &line);
  line += '\t';
  line += std::to_string(static_cast<int>(header.verb));
  line += '\t';
  line += std::to_string(static_cast<int>(header.by));
  line += '\t';
  line += header.has_value ? '1' : '0';
  line += '\t';
  line += header.has_aux ? '1' : '0';
  line += '\t';
  line += header.has_aux2 ? '1' : '0';
  line += '\t';
  line += header.has_tag ? '1' : '0';
  line += '\t';
  AppendWireEscaped(header.aux_name, &line);
  line += '\t';
  AppendWireEscaped(header.aux2_name, &line);
  line += '\t';
  AppendWireEscaped(header.tag_name, &line);
  line += '\n';
  return Write(line);
}

bool WireWriter::Row(const ResultRow& row) {
  std::string& line = line_;
  line = "R\t";
  AppendHex(row.skey, &line);
  line += '\t';
  AppendWireEscaped(row.sa, &line);
  line += '\t';
  AppendWireEscaped(row.ca, &line);
  line += '\t';
  AppendUint(row.t, &line);
  line += '\t';
  AppendUint(row.m, &line);
  line += '\t';
  AppendUint(row.units, &line);
  line += '\t';
  line += row.defined ? '1' : '0';
  for (double v : row.indexes) {
    line += '\t';
    AppendWireDouble(v, &line);
  }
  line += '\t';
  AppendWireDouble(row.value, &line);
  line += '\t';
  AppendWireDouble(row.aux, &line);
  line += '\t';
  AppendWireDouble(row.aux2, &line);
  line += '\t';
  AppendWireEscaped(row.tag, &line);
  line += '\n';
  return Write(line);
}

void WireWriter::Finish(const ResultTrailer& trailer) {
  std::string line = "T\t";
  line += std::to_string(trailer.cells_scanned);
  line += '\t';
  AppendWireEscaped(trailer.next_cursor, &line);
  line += '\n';
  Write(line);
}

std::string WireStatusLine(StatusCode code, const std::string& message,
                           uint64_t version, bool cache_hit, uint64_t rows) {
  std::string line = "S\t";
  line += std::to_string(static_cast<int>(code));
  line += '\t';
  AppendWireEscaped(message, &line);
  line += '\t';
  line += std::to_string(version);
  line += '\t';
  line += cache_hit ? '1' : '0';
  line += '\t';
  line += std::to_string(rows);
  line += '\n';
  return line;
}

Result<WireEvent> ParseWireLine(std::string_view line) {
  if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
  std::vector<std::string_view> fields = SplitFields(line);
  if (fields.empty() || fields[0].size() != 1) {
    return BadLine("missing event tag");
  }
  WireEvent event;
  switch (fields[0][0]) {
    case 'H': {
      if (fields.size() != 11) return BadLine("H wants 11 fields");
      event.kind = WireEvent::Kind::kHeader;
      uint64_t verb = 0, by = 0;
      if (!ParseWireU64(fields[1], &event.header.version) ||
          !ParseWireU64(fields[2], &verb) || verb >= kNumVerbs ||
          !ParseWireU64(fields[3], &by) ||
          by >= indexes::kNumIndexKinds ||
          !ParseWireBool(fields[4], &event.header.has_value) ||
          !ParseWireBool(fields[5], &event.header.has_aux) ||
          !ParseWireBool(fields[6], &event.header.has_aux2) ||
          !ParseWireBool(fields[7], &event.header.has_tag) ||
          !UnescapeWire(fields[8], &event.header.aux_name) ||
          !UnescapeWire(fields[9], &event.header.aux2_name) ||
          !UnescapeWire(fields[10], &event.header.tag_name)) {
        return BadLine("bad H field");
      }
      event.header.verb = static_cast<Verb>(verb);
      event.header.by = static_cast<indexes::IndexKind>(by);
      return event;
    }
    case 'R': {
      constexpr size_t kFixed = 8;  // tag, skey, sa, ca, t, m, units, defined
      constexpr size_t kDoubles = indexes::kNumIndexKinds + 3;
      if (fields.size() != kFixed + kDoubles + 1) {
        return BadLine("R wants skey + row fields");
      }
      event.kind = WireEvent::Kind::kRow;
      ResultRow& row = event.row;
      uint64_t units = 0;
      if (!DecodeHex(fields[1], &row.skey) ||
          !UnescapeWire(fields[2], &row.sa) ||
          !UnescapeWire(fields[3], &row.ca) ||
          !ParseWireU64(fields[4], &row.t) ||
          !ParseWireU64(fields[5], &row.m) ||
          !ParseWireU64(fields[6], &units) || units > UINT32_MAX ||
          !ParseWireBool(fields[7], &row.defined)) {
        return BadLine("bad R field");
      }
      row.units = static_cast<uint32_t>(units);
      size_t at = kFixed;
      for (size_t i = 0; i < indexes::kNumIndexKinds; ++i) {
        if (!ParseWireDouble(fields[at++], &row.indexes[i])) {
          return BadLine("bad R index value");
        }
      }
      if (!ParseWireDouble(fields[at++], &row.value) ||
          !ParseWireDouble(fields[at++], &row.aux) ||
          !ParseWireDouble(fields[at++], &row.aux2) ||
          !UnescapeWire(fields[at++], &row.tag)) {
        return BadLine("bad R value field");
      }
      return event;
    }
    case 'T': {
      if (fields.size() != 3) return BadLine("T wants 3 fields");
      event.kind = WireEvent::Kind::kTrailer;
      if (!ParseWireU64(fields[1], &event.cells_scanned) ||
          !UnescapeWire(fields[2], &event.next_cursor)) {
        return BadLine("bad T field");
      }
      return event;
    }
    case 'S': {
      if (fields.size() != 6) return BadLine("S wants 6 fields");
      event.kind = WireEvent::Kind::kStatus;
      uint64_t code = 0;
      if (!ParseWireU64(fields[1], &code) ||
          code > static_cast<uint64_t>(StatusCode::kDeadlineExceeded) ||
          !UnescapeWire(fields[2], &event.message) ||
          !ParseWireU64(fields[3], &event.version) ||
          !ParseWireBool(fields[4], &event.cache_hit) ||
          !ParseWireU64(fields[5], &event.rows)) {
        return BadLine("bad S field");
      }
      event.code = static_cast<StatusCode>(code);
      return event;
    }
    default:
      return BadLine("unknown event tag");
  }
}

}  // namespace query
}  // namespace scube
