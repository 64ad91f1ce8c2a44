// Table: columnar relational table with dictionary-encoded categoricals.
//
// This is the representation of SCube's `individual.csv`, `group.csv` and the
// joined `finalTable`. Categorical data is dictionary-encoded per column;
// multi-valued attributes (e.g. a company active in several sectors, Fig. 3
// of the paper) are stored as flattened code lists with offsets.

#ifndef SCUBE_RELATIONAL_TABLE_H_
#define SCUBE_RELATIONAL_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "relational/dictionary.h"
#include "relational/schema.h"

namespace scube {
namespace relational {

/// A typed cell for programmatic row construction.
using CellValue =
    std::variant<int64_t, double, std::string, std::vector<std::string>>;

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

  /// Appends a row of typed cells; cell count and types must match schema.
  Status AppendRow(const std::vector<CellValue>& cells);

  /// Appends a row of raw strings, parsing each per the column type.
  /// Set-valued cells use brace syntax: "{electricity, transports}"; a bare
  /// string is treated as a singleton set.
  Status AppendRowFromStrings(const std::vector<std::string>& fields);

  /// Returns the code of `value` in the dictionary of categorical or set
  /// column `col`, adding it if new.
  Code AddDictionaryValue(size_t col, const std::string& value);

  /// Appends a row in code space. As for AppendRow, the cell count and
  /// types must match the schema (a kDouble column takes a double); codes
  /// must be in the column's dictionary and a set's strictly ascending.
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

  /// Appends a derived categorical column (used by binning); `values` must
  /// have NumRows() entries.
  Status AddCategoricalColumn(const AttributeSpec& spec,
                              const std::vector<std::string>& values);

  /// Builds a table from a parsed CSV document; the document header must
  /// contain every schema attribute (extra columns are ignored).
  static Result<Table> FromCsv(const CsvDocument& doc, const Schema& schema);

  /// Serialises to CSV (header + rows).
  std::string ToCsvString() const;

  /// Parses brace-syntax set literals: "{a, b}" -> {"a","b"}; "x" -> {"x"};
  /// "{}" -> {}.
  static std::vector<std::string> ParseSetLiteral(const std::string& raw);

 private:
  struct Column {
    std::vector<Code> codes;          // kCategorical
    std::vector<int64_t> ints;        // kInt64
    std::vector<double> doubles;      // kDouble
    std::vector<uint32_t> set_offsets{0};  // kCategoricalSet
    std::vector<Code> set_codes;
    Dictionary dict;
  };

  Status CellCountMismatch(size_t cells) const;
  Status CellTypeMismatch(size_t col) const;

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace relational
}  // namespace scube

#endif  // SCUBE_RELATIONAL_TABLE_H_
