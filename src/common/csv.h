// RFC-4180-style CSV reading and writing.
//
// SCube's inputs (individual.csv, group.csv, individualGroup.csv) and several
// outputs (finalTable.csv, cube.csv) are CSV files; this module is the single
// implementation used everywhere. Quoted fields, embedded separators, quotes
// ("" escaping) and embedded newlines are supported. Set-valued cells use the
// paper's brace syntax: "{electricity, transports}" (parsed at the relational
// layer, transported here as plain strings).

#ifndef SCUBE_COMMON_CSV_H_
#define SCUBE_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace scube {

/// \brief In-memory parse of a CSV document: header + data rows.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column, or -1 when absent.
  int ColumnIndex(const std::string& name) const;
};

/// \brief Comma-separated parser: the first record is the header, and a
/// row whose field count differs from the header's is a ParseError.
class CsvReader {
 public:
  /// Parses a whole document held in memory.
  Result<CsvDocument> ParseString(const std::string& content) const;

  /// Reads and parses a file.
  Result<CsvDocument> ParseFile(const std::string& path) const;
};

/// \brief Streaming CSV writer with correct quoting.
class CsvWriter {
 public:
  explicit CsvWriter(char separator = ',') : separator_(separator) {}

  /// Appends one record; fields are quoted only when necessary.
  void WriteRow(const std::vector<std::string>& fields);

  /// The document assembled so far.
  const std::string& str() const { return out_; }

  /// Appends one field to `out`, quoted per RFC 4180 if it needs quoting
  /// (separator, quote, LF or CR inside).
  static void AppendEscapedField(std::string_view field, char separator,
                                 std::string* out);

 private:
  char separator_;
  std::string out_;
};

/// Reads an entire file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes a string to a file (truncating).
Status WriteStringToFile(const std::string& path, const std::string& content);

}  // namespace scube

#endif  // SCUBE_COMMON_CSV_H_
