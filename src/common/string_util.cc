#include "common/string_util.h"

#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace scube {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::ParseError("empty integer");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::ParseError("integer out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::ParseError("empty double");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  // ERANGE also flags underflow, where strtod returns the rounded
  // subnormal or zero; only overflow (±HUGE_VAL) is out of range.
  if (errno == ERANGE && std::isinf(v)) {
    return Status::ParseError("double out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("trailing characters in double: " + buf);
  }
  return v;
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void AppendDouble6g(double v, std::string* out) {
  char buf[kMaxDouble6gSize];
  out->append(buf, WriteDouble6g(v, buf));
}

char* WriteDouble6g(double v, char* first) {
  auto [end, ec] = std::to_chars(first, first + kMaxDouble6gSize, v,
                                 std::chars_format::general, 6);
  SCUBE_CHECK(ec == std::errc());
  return end;
}

std::string ExactDoubleText(double v) {
  std::string out;
  AppendDouble6g(v, &out);
  double back = 0.0;
  auto [ptr, ec] = std::from_chars(out.data(), out.data() + out.size(), back);
  if (ec == std::errc() && ptr == out.data() + out.size() &&
      std::bit_cast<uint64_t>(back) == std::bit_cast<uint64_t>(v)) {
    return out;
  }
  char buf[32];  // shortest round trip needs at most 24
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

void AppendUint(uint64_t v, std::string* out) {
  char buf[20];  // UINT64_MAX has 20 digits
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, end);
}

std::string FormatWithCommas(int64_t v) {
  std::string digits = std::to_string(v < 0 ? -v : v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (v < 0) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

Result<uint64_t> ParseHexU64(std::string_view s) {
  if (s.empty()) return Status::InvalidArgument("empty hex string");
  uint64_t value = 0;
  for (char c : s) {
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      return Status::InvalidArgument("invalid hex character");
    }
    if (value > (UINT64_MAX >> 4)) {
      return Status::InvalidArgument("hex value overflows uint64");
    }
    value = (value << 4) | static_cast<uint64_t>(v);
  }
  return value;
}

namespace {

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Value of one base64 character; -1 for non-alphabet bytes.
int Base64Value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

}  // namespace

std::string Base64Encode(std::string_view s) {
  std::string out;
  out.reserve((s.size() + 2) / 3 * 4);
  size_t i = 0;
  for (; i + 3 <= s.size(); i += 3) {
    uint32_t v = (static_cast<uint8_t>(s[i]) << 16) |
                 (static_cast<uint8_t>(s[i + 1]) << 8) |
                 static_cast<uint8_t>(s[i + 2]);
    out += kBase64Alphabet[(v >> 18) & 0x3F];
    out += kBase64Alphabet[(v >> 12) & 0x3F];
    out += kBase64Alphabet[(v >> 6) & 0x3F];
    out += kBase64Alphabet[v & 0x3F];
  }
  size_t rest = s.size() - i;
  if (rest == 1) {
    uint32_t v = static_cast<uint8_t>(s[i]) << 16;
    out += kBase64Alphabet[(v >> 18) & 0x3F];
    out += kBase64Alphabet[(v >> 12) & 0x3F];
    out += "==";
  } else if (rest == 2) {
    uint32_t v = (static_cast<uint8_t>(s[i]) << 16) |
                 (static_cast<uint8_t>(s[i + 1]) << 8);
    out += kBase64Alphabet[(v >> 18) & 0x3F];
    out += kBase64Alphabet[(v >> 12) & 0x3F];
    out += kBase64Alphabet[(v >> 6) & 0x3F];
    out += '=';
  }
  return out;
}

Result<std::string> Base64Decode(std::string_view s) {
  if (s.size() % 4 != 0) {
    return Status::InvalidArgument("base64 length not a multiple of 4");
  }
  std::string out;
  out.reserve(s.size() / 4 * 3);
  for (size_t i = 0; i < s.size(); i += 4) {
    int pad = 0;
    uint32_t v = 0;
    for (size_t j = 0; j < 4; ++j) {
      char c = s[i + j];
      if (c == '=') {
        // Padding is only valid in the last one or two positions of the
        // final group.
        if (i + 4 != s.size() || j < 2) {
          return Status::InvalidArgument("base64 padding misplaced");
        }
        ++pad;
        v <<= 6;
        continue;
      }
      if (pad > 0) {
        return Status::InvalidArgument("base64 data after padding");
      }
      int value = Base64Value(c);
      if (value < 0) {
        return Status::InvalidArgument("invalid base64 character");
      }
      v = (v << 6) | static_cast<uint32_t>(value);
    }
    out += static_cast<char>((v >> 16) & 0xFF);
    if (pad < 2) out += static_cast<char>((v >> 8) & 0xFF);
    if (pad < 1) out += static_cast<char>(v & 0xFF);
  }
  return out;
}

namespace {

/// Appends the JsonEscape form of `s`; plain runs are copied whole.
void AppendJsonEscaped(std::string_view s, std::string* out) {
  constexpr char kHex[] = "0123456789abcdef";
  size_t plain = 0;  // start of the run not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        out->append("\\u00");
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 0xf]);
    }
  }
  out->append(s.data() + plain, s.size() - plain);
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(s, &out);
  return out;
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  AppendJsonQuoted(s, &out);
  return out;
}

void AppendJsonQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  AppendJsonEscaped(s, out);
  out->push_back('"');
}

}  // namespace scube
