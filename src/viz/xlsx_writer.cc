#include "viz/xlsx_writer.h"

#include <cmath>

#include "common/string_util.h"
#include "viz/zip_writer.h"

namespace scube {
namespace viz {

std::string XlsxWriter::CellRef(size_t row, size_t col) {
  std::string letters;
  size_t c = col;
  while (true) {
    letters.insert(letters.begin(), static_cast<char>('A' + (c % 26)));
    if (c < 26) break;
    c = c / 26 - 1;
  }
  return letters + std::to_string(row + 1);
}

std::string XlsxWriter::XmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<XlsxWriter::Sheet*> XlsxWriter::AddSheet(const std::string& name) {
  if (name.empty() || name.size() > 31) {
    return Status::InvalidArgument("sheet name must be 1-31 characters");
  }
  for (char c : name) {
    if (c == '[' || c == ']' || c == '\\' || c == '/' || c == '*' ||
        c == '?' || c == ':') {
      return Status::InvalidArgument("sheet name contains forbidden "
                                     "character");
    }
  }
  for (const Sheet& s : sheets_) {
    if (s.name() == name) {
      return Status::AlreadyExists("duplicate sheet name: " + name);
    }
  }
  sheets_.emplace_back(name);
  return &sheets_.back();
}

namespace {

std::string SheetXml(const XlsxWriter::Sheet& sheet,
                     const std::vector<std::vector<XlsxValue>>& rows) {
  std::string xml =
      "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>\n"
      "<worksheet xmlns=\"http://schemas.openxmlformats.org/"
      "spreadsheetml/2006/main\"><sheetData>";
  for (size_t r = 0; r < rows.size(); ++r) {
    xml += "<row r=\"" + std::to_string(r + 1) + "\">";
    for (size_t c = 0; c < rows[r].size(); ++c) {
      const XlsxValue& value = rows[r][c];
      std::string ref = XlsxWriter::CellRef(r, c);
      if (std::holds_alternative<std::string>(value)) {
        xml += "<c r=\"" + ref + "\" t=\"inlineStr\"><is><t>" +
               XlsxWriter::XmlEscape(std::get<std::string>(value)) +
               "</t></is></c>";
      } else if (std::holds_alternative<double>(value)) {
        double v = std::get<double>(value);
        if (std::isfinite(v)) {
          xml += "<c r=\"" + ref + "\"><v>" + FormatDouble(v, 10) +
                 "</v></c>";
        } else {
          xml += "<c r=\"" + ref + "\" t=\"inlineStr\"><is><t>NaN</t></is>"
                 "</c>";
        }
      } else {
        xml += "<c r=\"" + ref + "\"><v>" +
               std::to_string(std::get<int64_t>(value)) + "</v></c>";
      }
    }
    xml += "</row>";
  }
  xml += "</sheetData></worksheet>";
  (void)sheet;
  return xml;
}

}  // namespace

Result<std::string> XlsxWriter::Serialize() const {
  if (sheets_.empty()) {
    return Status::FailedPrecondition("workbook has no sheets");
  }
  ZipWriter zip;

  std::string content_types =
      "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>\n"
      "<Types xmlns=\"http://schemas.openxmlformats.org/package/2006/"
      "content-types\">"
      "<Default Extension=\"rels\" ContentType=\"application/vnd."
      "openxmlformats-package.relationships+xml\"/>"
      "<Default Extension=\"xml\" ContentType=\"application/xml\"/>"
      "<Override PartName=\"/xl/workbook.xml\" ContentType=\"application/"
      "vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml\"/>";
  for (size_t i = 0; i < sheets_.size(); ++i) {
    content_types +=
        "<Override PartName=\"/xl/worksheets/sheet" + std::to_string(i + 1) +
        ".xml\" ContentType=\"application/vnd.openxmlformats-officedocument."
        "spreadsheetml.worksheet+xml\"/>";
  }
  content_types += "</Types>";
  zip.AddFile("[Content_Types].xml", content_types);

  zip.AddFile(
      "_rels/.rels",
      "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>\n"
      "<Relationships xmlns=\"http://schemas.openxmlformats.org/package/"
      "2006/relationships\">"
      "<Relationship Id=\"rId1\" Type=\"http://schemas.openxmlformats.org/"
      "officeDocument/2006/relationships/officeDocument\" "
      "Target=\"xl/workbook.xml\"/></Relationships>");

  std::string workbook =
      "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>\n"
      "<workbook xmlns=\"http://schemas.openxmlformats.org/spreadsheetml/"
      "2006/main\" xmlns:r=\"http://schemas.openxmlformats.org/"
      "officeDocument/2006/relationships\"><sheets>";
  std::string workbook_rels =
      "<?xml version=\"1.0\" encoding=\"UTF-8\" standalone=\"yes\"?>\n"
      "<Relationships xmlns=\"http://schemas.openxmlformats.org/package/"
      "2006/relationships\">";
  for (size_t i = 0; i < sheets_.size(); ++i) {
    std::string sid = std::to_string(i + 1);
    workbook += "<sheet name=\"" + XmlEscape(sheets_[i].name()) +
                "\" sheetId=\"" + sid + "\" r:id=\"rId" + sid + "\"/>";
    workbook_rels +=
        "<Relationship Id=\"rId" + sid + "\" Type=\"http://schemas."
        "openxmlformats.org/officeDocument/2006/relationships/worksheet\" "
        "Target=\"worksheets/sheet" + sid + ".xml\"/>";
  }
  workbook += "</sheets></workbook>";
  workbook_rels += "</Relationships>";
  zip.AddFile("xl/workbook.xml", workbook);
  zip.AddFile("xl/_rels/workbook.xml.rels", workbook_rels);

  for (size_t i = 0; i < sheets_.size(); ++i) {
    zip.AddFile("xl/worksheets/sheet" + std::to_string(i + 1) + ".xml",
                SheetXml(sheets_[i], sheets_[i].rows_));
  }
  return zip.Serialize();
}

Status XlsxWriter::Save(const std::string& path) const {
  auto bytes = Serialize();
  if (!bytes.ok()) return bytes.status();
  return WriteStringToFile(path, bytes.value());
}

Status WriteCubeXlsx(const cube::CubeView& view,
                     const std::string& path) {
  XlsxWriter writer;
  auto cube_sheet = writer.AddSheet("cube");
  if (!cube_sheet.ok()) return cube_sheet.status();

  std::vector<XlsxValue> header{std::string("subgroup"),
                                std::string("context"), std::string("T"),
                                std::string("M"), std::string("units")};
  for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
    header.emplace_back(std::string(indexes::IndexKindToString(kind)));
  }
  cube_sheet.value()->AddRow(header);

  for (cube::CubeView::CellId id = 0; id < view.NumCells(); ++id) {
    const cube::CubeCell& cell = view.cell(id);
    std::vector<XlsxValue> row{
        view.SaLabel(id),
        view.CaLabel(id),
        static_cast<int64_t>(cell.context_size),
        static_cast<int64_t>(cell.minority_size),
        static_cast<int64_t>(cell.num_units),
    };
    for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
      if (cell.indexes.defined) {
        row.emplace_back(cell.indexes[kind]);
      } else {
        row.emplace_back(std::string("-"));
      }
    }
    cube_sheet.value()->AddRow(row);
  }

  auto summary = writer.AddSheet("summary");
  if (!summary.ok()) return summary.status();
  summary.value()->AddRow({std::string("cells"),
                           static_cast<int64_t>(view.NumCells())});
  summary.value()->AddRow({std::string("defined cells"),
                           static_cast<int64_t>(view.NumDefinedCells())});
  summary.value()->AddRow({std::string("organizational units"),
                           static_cast<int64_t>(view.unit_labels().size())});
  return writer.Save(path);
}

}  // namespace viz
}  // namespace scube
