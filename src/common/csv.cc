#include "common/csv.h"

#include <fstream>
#include <sstream>

namespace scube {

int CsvDocument::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

// State machine over the raw characters; handles CRLF and quoted fields.
Status ParseRecords(const std::string& content,
                    std::vector<std::vector<std::string>>* records) {
  constexpr char sep = ',';
  std::vector<std::string> current;
  std::string field;
  bool in_quotes = false;
  bool field_started_quoted = false;
  size_t i = 0;
  const size_t n = content.size();

  auto end_field = [&]() {
    current.push_back(std::move(field));
    field.clear();
    field_started_quoted = false;
  };
  auto end_record = [&]() {
    end_field();
    records->push_back(std::move(current));
    current.clear();
  };

  while (i < n) {
    char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && content[i + 1] == '"') {
          field.push_back('"');
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        field.push_back(c);
        ++i;
      }
    } else {
      if (c == '"' && field.empty() && !field_started_quoted) {
        in_quotes = true;
        field_started_quoted = true;
        ++i;
      } else if (c == sep) {
        end_field();
        ++i;
      } else if (c == '\r') {
        // Swallow; the following \n (if any) ends the record.
        ++i;
        if (i >= n || content[i] != '\n') end_record();
      } else if (c == '\n') {
        end_record();
        ++i;
      } else {
        field.push_back(c);
        ++i;
      }
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted field at end of input");
  }
  // Final record without trailing newline.
  if (!field.empty() || !current.empty() || field_started_quoted) {
    end_record();
  }
  return Status::OK();
}

}  // namespace

Result<CsvDocument> CsvReader::ParseString(const std::string& content) const {
  std::vector<std::vector<std::string>> records;
  SCUBE_RETURN_IF_ERROR(ParseRecords(content, &records));
  if (records.empty()) {
    return Status::ParseError("CSV document is empty but a header expected");
  }
  CsvDocument doc;
  doc.header = std::move(records[0]);
  for (size_t r = 1; r < records.size(); ++r) {
    auto& row = records[r];
    if (row.size() != doc.header.size()) {
      return Status::ParseError(
          "row " + std::to_string(r) + " has " + std::to_string(row.size()) +
          " fields, expected " + std::to_string(doc.header.size()));
    }
    doc.rows.push_back(std::move(row));
  }
  return doc;
}

Result<CsvDocument> CsvReader::ParseFile(const std::string& path) const {
  auto content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return ParseString(content.value());
}

void CsvWriter::AppendEscapedField(std::string_view field, char separator,
                                   std::string* out) {
  bool needs_quote = false;
  for (char c : field) {
    if (c == separator || c == '"' || c == '\n' || c == '\r') {
      needs_quote = true;
      break;
    }
  }
  if (!needs_quote) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_.push_back(separator_);
    AppendEscapedField(fields[i], separator_, &out_);
  }
  out_.push_back('\n');
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open file for reading: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  if (in.bad()) return Status::IoError("read failure: " + path);
  return ss.str();
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open file for writing: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IoError("write failure: " + path);
  return Status::OK();
}

}  // namespace scube
