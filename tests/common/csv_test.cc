#include "common/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace scube {
namespace {

CsvDocument MustParse(const std::string& content) {
  CsvReader reader;
  auto doc = reader.ParseString(content);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.value();
}

TEST(CsvReaderTest, SimpleHeaderAndRows) {
  auto doc = MustParse("id,gender,age\n1,F,33\n2,M,47\n");
  EXPECT_EQ(doc.header, (std::vector<std::string>{"id", "gender", "age"}));
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"1", "F", "33"}));
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"2", "M", "47"}));
}

TEST(CsvReaderTest, MissingTrailingNewline) {
  auto doc = MustParse("a,b\n1,2");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"1", "2"}));
}

TEST(CsvReaderTest, CrLfLineEndings) {
  auto doc = MustParse("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvReaderTest, QuotedFieldsWithSeparatorsAndQuotes) {
  auto doc = MustParse(
      "id,sector\n"
      "1,\"{electricity, transports}\"\n"
      "2,\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][1], "{electricity, transports}");
  EXPECT_EQ(doc.rows[1][1], "say \"hi\"");
}

TEST(CsvReaderTest, QuotedFieldWithEmbeddedNewline) {
  auto doc = MustParse("a,b\n\"line1\nline2\",x\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "line1\nline2");
}

TEST(CsvReaderTest, EmptyFields) {
  auto doc = MustParse("a,b,c\n,,\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvReaderTest, StrictFieldCountMismatchIsError) {
  CsvReader reader;
  auto doc = reader.ParseString("a,b\n1,2,3\n");
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(CsvReaderTest, UnterminatedQuoteIsError) {
  CsvReader reader;
  auto doc = reader.ParseString("a\n\"unterminated\n");
  EXPECT_FALSE(doc.ok());
}

TEST(CsvReaderTest, ColumnIndexLookup) {
  auto doc = MustParse("id,gender,age\n1,F,30\n");
  EXPECT_EQ(doc.ColumnIndex("gender"), 1);
  EXPECT_EQ(doc.ColumnIndex("missing"), -1);
}

TEST(CsvWriterTest, EscapesOnlyWhenNeeded) {
  CsvWriter w;
  w.WriteRow({"plain", "with,comma", "with\"quote", "with\nnewline"});
  EXPECT_EQ(w.str(),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(CsvWriterTest, RoundTripThroughReader) {
  CsvWriter w;
  w.WriteRow({"id", "attrs"});
  w.WriteRow({"1", "{a,b}"});
  w.WriteRow({"2", "plain"});
  auto doc = MustParse(w.str());
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][1], "{a,b}");
  EXPECT_EQ(doc.rows[1][1], "plain");
}

TEST(CsvFileTest, WriteAndReadBackFile) {
  std::string path = ::testing::TempDir() + "/scube_csv_test.csv";
  CsvWriter w;
  w.WriteRow({"a", "b"});
  w.WriteRow({"1", "2"});
  ASSERT_TRUE(WriteStringToFile(path, w.str()).ok());
  CsvReader reader;
  auto doc = reader.ParseFile(path);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().rows.size(), 1u);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsIoError) {
  CsvReader reader;
  auto doc = reader.ParseFile("/nonexistent/path/file.csv");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace scube
