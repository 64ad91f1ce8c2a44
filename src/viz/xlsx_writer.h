// XlsxWriter: minimal-but-valid OOXML SpreadsheetML workbook writer — the
// Visualizer output of SCube ("a standard OOXML format that can be opened by
// Microsoft Excel, Libre Office, and other office productivity tools").
//
// Strings are written as inline strings (no shared-string table); numbers as
// native numeric cells. One worksheet per AddSheet call.

#ifndef SCUBE_VIZ_XLSX_WRITER_H_
#define SCUBE_VIZ_XLSX_WRITER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "cube/cube_view.h"

namespace scube {
namespace viz {

/// A spreadsheet cell value.
using XlsxValue = std::variant<std::string, double, int64_t>;

/// \brief Workbook builder.
class XlsxWriter {
 public:
  /// \brief One worksheet.
  class Sheet {
   public:
    explicit Sheet(std::string name) : name_(std::move(name)) {}

    /// Appends one row of cells.
    void AddRow(std::vector<XlsxValue> cells) {
      rows_.push_back(std::move(cells));
    }

    const std::string& name() const { return name_; }
    size_t NumRows() const { return rows_.size(); }

   private:
    friend class XlsxWriter;
    std::string name_;
    std::vector<std::vector<XlsxValue>> rows_;
  };

  /// Adds a sheet (names must be unique, 1-31 chars, no []\/*?: characters).
  Result<Sheet*> AddSheet(const std::string& name);

  /// Serialises the workbook to .xlsx bytes.
  Result<std::string> Serialize() const;

  /// Writes the workbook to a file.
  Status Save(const std::string& path) const;

  /// Spreadsheet cell reference: (0,0) -> "A1", (1,27) -> "AB2".
  static std::string CellRef(size_t row, size_t col);

  /// XML-escapes text content.
  static std::string XmlEscape(const std::string& text);

 private:
  // deque: stable Sheet* across AddSheet calls.
  std::deque<Sheet> sheets_;
};

/// Exports a sealed segregation cube as `scube.xlsx`: a "cube" sheet with
/// one row per cell (labels, T, M, units, all six indexes) and a "summary"
/// sheet.
Status WriteCubeXlsx(const cube::CubeView& view, const std::string& path);

}  // namespace viz
}  // namespace scube

#endif  // SCUBE_VIZ_XLSX_WRITER_H_
