// Small string helpers shared across modules (no locale dependence).

#ifndef SCUBE_COMMON_STRING_UTIL_H_
#define SCUBE_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace scube {

/// Splits `input` on `sep`; keeps empty fields. "a,,b" -> {"a","","b"}.
std::vector<std::string> Split(std::string_view input, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// ASCII-only lower-casing (sufficient for attribute names and enum values).
std::string ToLower(std::string_view s);

/// Strict integer / double parsing of the *entire* string.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Strict unsigned hex parsing of the entire string (no 0x prefix, both
/// cases accepted). InvalidArgument on empty input, non-hex characters or
/// uint64 overflow. Used by the chunked-transfer decoder and the cursor
/// codec.
Result<uint64_t> ParseHexU64(std::string_view s);

/// Formats a double with `digits` decimal places ("0.78").
std::string FormatDouble(double v, int digits);

/// Appends `v` exactly as printf("%.6g") renders it ("0.333333", "1e-05",
/// "1.23457e+06", "-0", "inf"). It is std::to_chars in general format with
/// precision 6, which the standard defines as %.6g: no locale, no
/// allocation beyond `out`'s growth. The result rows' number format.
void AppendDouble6g(double v, std::string* out);

/// The longest AppendDouble6g text: "-1.79769e+308".
inline constexpr size_t kMaxDouble6gSize = 13;

/// Writes AppendDouble6g's text of `v` to [first, first + kMaxDouble6gSize)
/// and returns one past its last byte.
char* WriteDouble6g(double v, char* first);

/// Renders `v` so that it parses back to the same double: its "%.6g" text
/// when that already reads back exactly ("0.05", "2.5", "1e-05"), else the
/// shortest round-trip text ("0.08209409627130691", "1234567"). For
/// doubles that are keys or measurements rather than display values:
/// canonical query thresholds and /metrics samples.
std::string ExactDoubleText(double v);

/// Appends the decimal digits of `v`.
void AppendUint(uint64_t v, std::string* out);

/// Formats with thousands separators: 3600000 -> "3,600,000".
std::string FormatWithCommas(int64_t v);

/// Standard base64 (RFC 4648, with padding). Used for opaque wire tokens
/// such as the query-result resume cursors.
std::string Base64Encode(std::string_view s);

/// Decodes standard base64; InvalidArgument on bad characters, bad padding
/// or a truncated final group. Whitespace is not accepted.
Result<std::string> Base64Decode(std::string_view s);

/// Escapes `s` for embedding inside a JSON string literal (RFC 8259):
/// quote, backslash, and the C0 control characters. Bytes >= 0x20 other
/// than `"` and `\` pass through untouched, so UTF-8 survives verbatim.
/// Does NOT add the surrounding quotes.
std::string JsonEscape(std::string_view s);

/// `JsonEscape` wrapped in double quotes: a complete JSON string token.
std::string JsonQuote(std::string_view s);

/// Appends `JsonQuote(s)` to `out` without building it separately.
void AppendJsonQuoted(std::string_view s, std::string* out);

}  // namespace scube

#endif  // SCUBE_COMMON_STRING_UTIL_H_
