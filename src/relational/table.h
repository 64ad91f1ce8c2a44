// Table: columnar relational table with dictionary-encoded categoricals.
//
// This is the representation of SCube's `individual.csv`, `group.csv` and the
// joined `finalTable`. Categorical data is dictionary-encoded per column;
// multi-valued attributes (e.g. a company active in several sectors, Fig. 3
// of the paper) are stored as flattened code lists with offsets.
//
// Rows enter one way. Text rows (AppendRowFromStrings: CSV loading, small
// in-code tables) are parsed, their values interned into the column
// dictionaries, and the codes appended by AppendCodedRow, which checks
// and pushes every row. Builders that already hold codes (the ETL join,
// the scenario generator) intern with AddDictionaryValue and call
// AppendCodedRow directly. A table's schema is fixed when it is built.

#ifndef SCUBE_RELATIONAL_TABLE_H_
#define SCUBE_RELATIONAL_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "relational/dictionary.h"
#include "relational/schema.h"

namespace scube {
namespace relational {

/// A typed cell in code space, for rows whose values are already codes of
/// the table's own dictionaries: a categorical code, an int64, a double,
/// or a set's codes (ascending, no duplicates).
using CodedCell = std::variant<Code, int64_t, double, std::span<const Code>>;

/// \brief Columnar table bound to a Schema.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t NumRows() const { return num_rows_; }

  /// Appends a row of raw strings, one per attribute. The numeric fields
  /// are parsed first; then the categorical and set values are interned
  /// into their column dictionaries, column by column (a set's values in
  /// literal order), and the codes appended by AppendCodedRow. A row that
  /// fails to parse leaves the table and every dictionary unchanged.
  /// Set-valued cells use brace syntax: "{electricity, transports}"; a bare
  /// string is treated as a singleton set.
  Status AppendRowFromStrings(std::span<const std::string_view> fields);
  /// The same, for a row held as strings.
  Status AppendRowFromStrings(const std::vector<std::string>& fields);

  /// Returns the code of `value` in the dictionary of categorical or set
  /// column `col`, adding it if new.
  Code AddDictionaryValue(size_t col, std::string_view value);

  /// Appends a row in code space: the cell count and types must match the
  /// schema (a kDouble column takes a double), codes must be in the
  /// column's dictionary and a set's strictly ascending. A refused row
  /// leaves the table unchanged.
  Status AppendCodedRow(std::span<const CodedCell> cells);

  // Accessors (row < NumRows(), col bound to the matching column type).
  Code CategoricalCode(size_t row, size_t col) const;
  const std::string& CategoricalValue(size_t row, size_t col) const;
  int64_t Int64Value(size_t row, size_t col) const;
  double DoubleValue(size_t row, size_t col) const;
  /// Codes of a set-valued cell (sorted, deduplicated).
  std::span<const Code> SetCodes(size_t row, size_t col) const;
  /// String values of a set-valued cell.
  std::vector<std::string> SetValues(size_t row, size_t col) const;

  /// The dictionary of a categorical or set column.
  const Dictionary& dictionary(size_t col) const;

  /// Renders any cell as a string (sets as "{a,b}").
  std::string CellToString(size_t row, size_t col) const;

  /// Builds a table from a parsed CSV document; the document header must
  /// contain every schema attribute (extra columns are ignored).
  static Result<Table> FromCsv(const CsvDocument& doc, const Schema& schema);

  /// Serialises to CSV (header + rows).
  std::string ToCsvString() const;

  /// Parses brace-syntax set literals: "{a, b}" -> {"a","b"}; "x" -> {"x"};
  /// "{}" -> {}.
  static std::vector<std::string> ParseSetLiteral(std::string_view raw);

 private:
  struct Column {
    std::vector<Code> codes;          // kCategorical
    std::vector<int64_t> ints;        // kInt64
    std::vector<double> doubles;      // kDouble
    std::vector<uint32_t> set_offsets{0};  // kCategoricalSet
    std::vector<Code> set_codes;
    Dictionary dict;
  };

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace relational
}  // namespace scube

#endif  // SCUBE_RELATIONAL_TABLE_H_
