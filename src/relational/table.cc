#include "relational/table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"

namespace scube {
namespace relational {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.NumAttributes());
}

std::vector<std::string> Table::ParseSetLiteral(std::string_view raw) {
  std::string_view s = Trim(raw);
  if (s.empty()) return {};
  if (s.front() != '{') return {std::string(s)};
  if (s.back() != '}') return {std::string(s)};  // malformed: keep verbatim
  s = s.substr(1, s.size() - 2);
  if (Trim(s).empty()) return {};
  std::vector<std::string> out;
  for (const std::string& part : Split(s, ',')) {
    std::string trimmed(Trim(part));
    if (!trimmed.empty()) out.push_back(std::move(trimmed));
  }
  return out;
}

Code Table::AddDictionaryValue(size_t col, std::string_view value) {
  SCUBE_CHECK(schema_.attribute(col).type == ColumnType::kCategorical ||
              schema_.attribute(col).type == ColumnType::kCategoricalSet);
  return columns_[col].dict.GetOrAdd(value);
}

Status Table::AppendCodedRow(std::span<const CodedCell> cells) {
  if (cells.size() != schema_.NumAttributes()) {
    return Status::InvalidArgument("row has " + std::to_string(cells.size()) +
                                   " cells, schema has " +
                                   std::to_string(schema_.NumAttributes()));
  }
  // Validate first so a failed append leaves the table unchanged.
  for (size_t c = 0; c < cells.size(); ++c) {
    const CodedCell& cell = cells[c];
    const size_t dict_size = columns_[c].dict.size();
    bool type_ok = false, codes_ok = true;
    switch (schema_.attribute(c).type) {
      case ColumnType::kCategorical:
        type_ok = std::holds_alternative<Code>(cell);
        codes_ok = type_ok && std::get<Code>(cell) < dict_size;
        break;
      case ColumnType::kInt64:
        type_ok = std::holds_alternative<int64_t>(cell);
        break;
      case ColumnType::kDouble:
        type_ok = std::holds_alternative<double>(cell);
        break;
      case ColumnType::kCategoricalSet: {
        type_ok = std::holds_alternative<std::span<const Code>>(cell);
        if (!type_ok) break;
        std::span<const Code> codes = std::get<std::span<const Code>>(cell);
        for (size_t i = 0; i < codes.size(); ++i) {
          if (codes[i] >= dict_size || (i > 0 && codes[i - 1] >= codes[i])) {
            codes_ok = false;
          }
        }
        break;
      }
    }
    if (!type_ok) {
      return Status::InvalidArgument(
          "cell " + std::to_string(c) + " type mismatch for attribute '" +
          schema_.attribute(c).name + "' (" +
          ColumnTypeToString(schema_.attribute(c).type) + ")");
    }
    if (!codes_ok) {
      return Status::InvalidArgument(
          "cell " + std::to_string(c) + " for attribute '" +
          schema_.attribute(c).name +
          "' holds a code outside its dictionary or an unsorted set");
    }
  }
  for (size_t c = 0; c < cells.size(); ++c) {
    Column& col = columns_[c];
    const CodedCell& cell = cells[c];
    switch (schema_.attribute(c).type) {
      case ColumnType::kCategorical:
        col.codes.push_back(std::get<Code>(cell));
        break;
      case ColumnType::kInt64:
        col.ints.push_back(std::get<int64_t>(cell));
        break;
      case ColumnType::kDouble:
        col.doubles.push_back(std::get<double>(cell));
        break;
      case ColumnType::kCategoricalSet: {
        std::span<const Code> codes = std::get<std::span<const Code>>(cell);
        col.set_codes.insert(col.set_codes.end(), codes.begin(), codes.end());
        col.set_offsets.push_back(static_cast<uint32_t>(col.set_codes.size()));
        break;
      }
    }
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendRowFromStrings(std::span<const std::string_view> fields) {
  if (fields.size() != schema_.NumAttributes()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(fields.size()) + " fields, schema has " +
        std::to_string(schema_.NumAttributes()));
  }
  // Numbers first: a field that does not parse must find every dictionary
  // as it was.
  std::vector<CodedCell> cells(fields.size());
  for (size_t c = 0; c < fields.size(); ++c) {
    const ColumnType type = schema_.attribute(c).type;
    if (type == ColumnType::kInt64) {
      auto v = ParseInt64(fields[c]);
      if (!v.ok()) {
        return v.status().WithContext("attribute '" +
                                      schema_.attribute(c).name + "'");
      }
      cells[c] = v.value();
    } else if (type == ColumnType::kDouble) {
      auto v = ParseDouble(fields[c]);
      if (!v.ok()) {
        return v.status().WithContext("attribute '" +
                                      schema_.attribute(c).name + "'");
      }
      cells[c] = v.value();
    }
  }
  // Then intern, column by column.
  std::vector<std::vector<Code>> sets(fields.size());
  for (size_t c = 0; c < fields.size(); ++c) {
    Dictionary& dict = columns_[c].dict;
    if (schema_.attribute(c).type == ColumnType::kCategorical) {
      cells[c] = dict.GetOrAdd(fields[c]);
    } else if (schema_.attribute(c).type == ColumnType::kCategoricalSet) {
      std::vector<Code>& codes = sets[c];
      for (const std::string& v : ParseSetLiteral(fields[c])) {
        codes.push_back(dict.GetOrAdd(v));
      }
      std::sort(codes.begin(), codes.end());
      codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
      cells[c] = std::span<const Code>(codes);
    }
  }
  return AppendCodedRow(cells);
}

Status Table::AppendRowFromStrings(const std::vector<std::string>& fields) {
  const std::vector<std::string_view> views(fields.begin(), fields.end());
  return AppendRowFromStrings(views);
}

Code Table::CategoricalCode(size_t row, size_t col) const {
  SCUBE_CHECK(schema_.attribute(col).type == ColumnType::kCategorical);
  return columns_[col].codes[row];
}

const std::string& Table::CategoricalValue(size_t row, size_t col) const {
  return columns_[col].dict.ValueOf(CategoricalCode(row, col));
}

int64_t Table::Int64Value(size_t row, size_t col) const {
  SCUBE_CHECK(schema_.attribute(col).type == ColumnType::kInt64);
  return columns_[col].ints[row];
}

double Table::DoubleValue(size_t row, size_t col) const {
  SCUBE_CHECK(schema_.attribute(col).type == ColumnType::kDouble);
  return columns_[col].doubles[row];
}

std::span<const Code> Table::SetCodes(size_t row, size_t col) const {
  SCUBE_CHECK(schema_.attribute(col).type == ColumnType::kCategoricalSet);
  const Column& c = columns_[col];
  uint32_t begin = c.set_offsets[row];
  uint32_t end = c.set_offsets[row + 1];
  return std::span<const Code>(c.set_codes.data() + begin, end - begin);
}

std::vector<std::string> Table::SetValues(size_t row, size_t col) const {
  std::vector<std::string> out;
  for (Code code : SetCodes(row, col)) {
    out.push_back(columns_[col].dict.ValueOf(code));
  }
  return out;
}

const Dictionary& Table::dictionary(size_t col) const {
  return columns_[col].dict;
}

std::string Table::CellToString(size_t row, size_t col) const {
  switch (schema_.attribute(col).type) {
    case ColumnType::kCategorical:
      return CategoricalValue(row, col);
    case ColumnType::kInt64:
      return std::to_string(Int64Value(row, col));
    case ColumnType::kDouble:
      return FormatDouble(DoubleValue(row, col), 6);
    case ColumnType::kCategoricalSet: {
      std::string out = "{";
      bool first = true;
      for (const std::string& v : SetValues(row, col)) {
        if (!first) out += ",";
        out += v;
        first = false;
      }
      out += "}";
      return out;
    }
  }
  return "";
}

Result<Table> Table::FromCsv(const CsvDocument& doc, const Schema& schema) {
  // Map each schema attribute to its CSV column.
  std::vector<int> csv_col(schema.NumAttributes(), -1);
  for (size_t a = 0; a < schema.NumAttributes(); ++a) {
    csv_col[a] = doc.ColumnIndex(schema.attribute(a).name);
    if (csv_col[a] < 0) {
      return Status::NotFound("CSV is missing schema attribute '" +
                              schema.attribute(a).name + "'");
    }
  }
  Table table(schema);
  std::vector<std::string_view> fields(schema.NumAttributes());
  for (size_t r = 0; r < doc.rows.size(); ++r) {
    for (size_t a = 0; a < schema.NumAttributes(); ++a) {
      fields[a] = doc.rows[r][static_cast<size_t>(csv_col[a])];
    }
    Status s = table.AppendRowFromStrings(fields);
    if (!s.ok()) return s.WithContext("row " + std::to_string(r));
  }
  return table;
}

std::string Table::ToCsvString() const {
  CsvWriter writer;
  std::vector<std::string> header;
  for (const auto& attr : schema_.attributes()) header.push_back(attr.name);
  writer.WriteRow(header);
  std::vector<std::string> fields(schema_.NumAttributes());
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t c = 0; c < schema_.NumAttributes(); ++c) {
      fields[c] = CellToString(r, c);
    }
    writer.WriteRow(fields);
  }
  return writer.str();
}

}  // namespace relational
}  // namespace scube
