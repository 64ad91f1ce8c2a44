#include "relational/table.h"

#include <gtest/gtest.h>

namespace scube {
namespace relational {
namespace {

Schema TestSchema() {
  return Schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"score", ColumnType::kDouble, AttributeKind::kIgnore},
      {"sector", ColumnType::kCategoricalSet, AttributeKind::kContext},
  });
}

TEST(TableTest, AppendTypedRows) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRowFromStrings({"1", "F", "0.5", "{edu, agri}"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"2", "M", "1.25", "{}"}).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.Int64Value(0, 0), 1);
  EXPECT_EQ(t.CategoricalValue(0, 1), "F");
  EXPECT_DOUBLE_EQ(t.DoubleValue(1, 2), 1.25);
  EXPECT_EQ(t.SetValues(0, 3), (std::vector<std::string>{"edu", "agri"}));
  EXPECT_TRUE(t.SetValues(1, 3).empty());
}

TEST(TableTest, DictionaryCodesShared) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRowFromStrings({"1", "F", "0", "{}"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"2", "M", "0", "{}"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"3", "F", "0", "{}"}).ok());
  EXPECT_EQ(t.CategoricalCode(0, 1), t.CategoricalCode(2, 1));
  EXPECT_NE(t.CategoricalCode(0, 1), t.CategoricalCode(1, 1));
  EXPECT_EQ(t.dictionary(1).size(), 2u);
}

TEST(TableTest, IntAcceptedForDoubleColumn) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRowFromStrings({"1", "F", "3", "{}"}).ok());
  EXPECT_DOUBLE_EQ(t.DoubleValue(0, 2), 3.0);
}

TEST(TableTest, TypeMismatchRejectedAtomically) {
  Table t(TestSchema());
  Status s = t.AppendRowFromStrings({"oops", "F", "0.5", "{}"});
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(t.NumRows(), 0u);
}

TEST(TableTest, WrongArityRejected) {
  Table t(TestSchema());
  Status s = t.AppendRowFromStrings({"1"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendCodedRowReadsBackAndChecksItsCells) {
  Table t(TestSchema());
  const Code f = t.AddDictionaryValue(1, "F");
  const Code agri = t.AddDictionaryValue(3, "agri");
  const Code edu = t.AddDictionaryValue(3, "edu");
  EXPECT_EQ(t.AddDictionaryValue(1, "F"), f);
  const std::vector<Code> sectors = {agri, edu};
  const std::vector<CodedCell> row = {int64_t{7}, f, 0.5,
                                      std::span<const Code>(sectors)};
  ASSERT_TRUE(t.AppendCodedRow(row).ok());
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.Int64Value(0, 0), 7);
  EXPECT_EQ(t.CategoricalValue(0, 1), "F");
  EXPECT_DOUBLE_EQ(t.DoubleValue(0, 2), 0.5);
  EXPECT_EQ(t.SetValues(0, 3), (std::vector<std::string>{"agri", "edu"}));

  // Each broken row is refused whole: wrong arity, a wrong type (a double
  // column takes no int here), a code outside the dictionary, and set
  // codes out of order or repeated.
  const std::vector<Code> unsorted = {edu, agri};
  const std::vector<Code> repeated = {agri, agri};
  const std::vector<Code> unknown = {edu + 1};
  const std::vector<std::vector<CodedCell>> broken = {
      {int64_t{8}, f, 0.5},
      {int64_t{8}, f, int64_t{1}, std::span<const Code>(sectors)},
      {int64_t{8}, f + 1, 0.5, std::span<const Code>(sectors)},
      {int64_t{8}, f, 0.5, std::span<const Code>(unknown)},
      {int64_t{8}, f, 0.5, std::span<const Code>(unsorted)},
      {int64_t{8}, f, 0.5, std::span<const Code>(repeated)},
  };
  for (const std::vector<CodedCell>& cells : broken) {
    EXPECT_EQ(t.AppendCodedRow(cells).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.ToCsvString(),
            "id,gender,score,sector\n7,F,0.500000,\"{agri,edu}\"\n");
}

TEST(TableTest, AppendFromStringsParsesTypes) {
  Table t(TestSchema());
  ASSERT_TRUE(
      t.AppendRowFromStrings({"7", "F", "0.25", "{transport, energy}"}).ok());
  EXPECT_EQ(t.Int64Value(0, 0), 7);
  EXPECT_DOUBLE_EQ(t.DoubleValue(0, 2), 0.25);
  EXPECT_EQ(t.SetValues(0, 3),
            (std::vector<std::string>{"transport", "energy"}));
}

TEST(TableTest, AppendFromStringsBadIntReported) {
  Table t(TestSchema());
  Status s = t.AppendRowFromStrings({"x", "F", "0.25", "edu"});
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("id"), std::string::npos);
}

TEST(TableTest, FailedParseLeavesTableAndDictionariesUnchanged) {
  Table t(Schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"sector", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"year", ColumnType::kInt64, AttributeKind::kIgnore},
  }));
  ASSERT_TRUE(t.AppendRowFromStrings({"F", "{edu}", "2001"}).ok());
  // New categorical and set values ahead of an int that does not parse.
  Status s = t.AppendRowFromStrings({"M", "{agri, edu}", "20x1"});
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(t.NumRows(), 1u);
  EXPECT_EQ(t.dictionary(0).size(), 1u);
  EXPECT_EQ(t.dictionary(1).size(), 1u);
}

TEST(TableTest, SetLiteralInternsInOrderAndStoresEachCodeOnce) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRowFromStrings({"1", "F", "0", "{b, a, b}"}).ok());
  const Dictionary& dict = t.dictionary(3);
  ASSERT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.ValueOf(0), "b");
  EXPECT_EQ(dict.ValueOf(1), "a");
  std::span<const Code> codes = t.SetCodes(0, 3);
  EXPECT_EQ(std::vector<Code>(codes.begin(), codes.end()),
            (std::vector<Code>{0, 1}));
}

TEST(TableTest, ParseSetLiteralVariants) {
  EXPECT_EQ(Table::ParseSetLiteral("{a,b}"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(Table::ParseSetLiteral("{ a , b }"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(Table::ParseSetLiteral("bare"),
            (std::vector<std::string>{"bare"}));
  EXPECT_TRUE(Table::ParseSetLiteral("{}").empty());
  EXPECT_TRUE(Table::ParseSetLiteral("").empty());
  EXPECT_TRUE(Table::ParseSetLiteral("  ").empty());
}

TEST(TableTest, SetCellsDeduplicated) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRowFromStrings({"1", "F", "0", "{a, b, a}"}).ok());
  EXPECT_EQ(t.SetCodes(0, 3).size(), 2u);
}

TEST(TableTest, CellToStringRendering) {
  Table t(TestSchema());
  ASSERT_TRUE(t.AppendRowFromStrings({"9", "M", "0.5", "{a, b}"}).ok());
  EXPECT_EQ(t.CellToString(0, 0), "9");
  EXPECT_EQ(t.CellToString(0, 1), "M");
  EXPECT_EQ(t.CellToString(0, 3), "{a,b}");
}

TEST(TableTest, CsvRoundTrip) {
  Table t(TestSchema());
  ASSERT_TRUE(
      t.AppendRowFromStrings({"1", "F", "0.5", "{edu, agri}"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"2", "M", "1.5", "energy"}).ok());
  std::string csv = t.ToCsvString();

  CsvReader reader;
  auto doc = reader.ParseString(csv);
  ASSERT_TRUE(doc.ok());
  auto back = Table::FromCsv(doc.value(), TestSchema());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->NumRows(), 2u);
  EXPECT_EQ(back->CategoricalValue(0, 1), "F");
  EXPECT_EQ(back->SetValues(0, 3), (std::vector<std::string>{"edu", "agri"}));
  EXPECT_EQ(back->SetValues(1, 3), (std::vector<std::string>{"energy"}));
}

TEST(TableTest, FromCsvMissingColumn) {
  CsvReader reader;
  auto doc = reader.ParseString("id,gender\n1,F\n");
  ASSERT_TRUE(doc.ok());
  auto t = Table::FromCsv(doc.value(), TestSchema());
  EXPECT_EQ(t.status().code(), StatusCode::kNotFound);
}

TEST(TableTest, FromCsvIgnoresExtraColumns) {
  CsvReader reader;
  auto doc = reader.ParseString(
      "extra,id,gender,score,sector\nzzz,1,F,0.5,edu\n");
  ASSERT_TRUE(doc.ok());
  auto t = Table::FromCsv(doc.value(), TestSchema());
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->NumRows(), 1u);
  EXPECT_EQ(t->CategoricalValue(0, 1), "F");
}

}  // namespace
}  // namespace relational
}  // namespace scube
