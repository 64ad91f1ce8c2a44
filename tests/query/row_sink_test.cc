// Unit tests for the streaming sink layer: writers against hand-built
// results, replay semantics, abort propagation and cursor tokens. The
// end-to-end streamed-vs-materialised equivalence lives in
// streaming_equivalence_test.cc.

#include "query/row_sink.h"

#include <gtest/gtest.h>

#include <string>

#include "common/csv.h"
#include "query/parser.h"

namespace scube {
namespace query {
namespace {

QueryResult SmallResult() {
  QueryResult result;
  result.verb = Verb::kTopK;
  result.has_value = true;
  result.cells_scanned = 7;
  for (int i = 0; i < 3; ++i) {
    ResultRow row;
    row.sa = "sex=F";
    row.ca = "region=r" + std::to_string(i);
    row.t = 100 + i;
    row.m = 10 + i;
    row.units = 2;
    row.defined = true;
    row.value = 0.5 - 0.1 * i;
    result.rows.push_back(row);
  }
  return result;
}

TEST(RowSinkTest, VectorSinkRoundTripsThroughReplay) {
  QueryResult original = SmallResult();
  original.next_cursor = "tok";
  VectorSink sink;
  EXPECT_EQ(ReplayResult(original, sink), 3u);
  const QueryResult& copy = sink.result();
  EXPECT_EQ(copy.verb, original.verb);
  EXPECT_EQ(copy.rows.size(), 3u);
  EXPECT_EQ(copy.cells_scanned, 7u);
  EXPECT_EQ(copy.next_cursor, "tok");
  EXPECT_EQ(ToJson(copy), ToJson(original));
  EXPECT_EQ(ToCsv(copy), ToCsv(original));
}

TEST(RowSinkTest, JsonWriterMatchesToJsonIncludingCursor) {
  QueryResult result = SmallResult();
  result.next_cursor = "abc123";
  std::string streamed;
  JsonWriter writer([&streamed](std::string_view chunk) {
    streamed.append(chunk);
    return true;
  });
  ReplayResult(result, writer);
  EXPECT_EQ(streamed, ToJson(result));
  EXPECT_NE(streamed.find("\"next_cursor\":\"abc123\""), std::string::npos);
  // cells_scanned rides in the trailer, after the rows.
  EXPECT_GT(streamed.find("\"cells_scanned\""), streamed.find("\"rows\""));
}

TEST(RowSinkTest, CsvWriterMatchesToCsvIncludingCursorComment) {
  QueryResult result = SmallResult();
  result.next_cursor = "abc123";
  std::string streamed;
  CsvWriter writer([&streamed](std::string_view chunk) {
    streamed.append(chunk);
    return true;
  });
  ReplayResult(result, writer);
  EXPECT_EQ(streamed, ToCsv(result));
  EXPECT_NE(streamed.find("# next_cursor: abc123\n"), std::string::npos);
}

TEST(RowSinkTest, CsvRenderingParsesBackWithTheRepoReader) {
  // Labels come from input CSV values, and a quoted input field may carry
  // a carriage return, a quote, a comma or a newline into a label.
  QueryResult result = SmallResult();
  result.rows[0].sa = "sex=F\rX";
  result.rows[1].ca = "region=\"north, east\"";
  result.rows[2].sa = "sex=M\nY";
  auto doc = CsvReader().ParseString(ToCsv(result));
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_EQ(doc->rows.size(), result.rows.size());
  for (size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(doc->rows[i][0], result.rows[i].sa) << "row " << i;
    EXPECT_EQ(doc->rows[i][1], result.rows[i].ca) << "row " << i;
  }
}

TEST(RowSinkTest, WriterAbortStopsReplayEarly) {
  QueryResult result = SmallResult();
  int writes_allowed = 2;  // header + first row
  std::string streamed;
  JsonWriter writer([&](std::string_view chunk) {
    if (writes_allowed == 0) return false;
    --writes_allowed;
    streamed.append(chunk);
    return true;
  });
  uint64_t delivered = ReplayResult(result, writer);
  EXPECT_LT(delivered, result.rows.size());
  EXPECT_FALSE(writer.ok());
}

TEST(RowSinkTest, ReplayTrailerOverrideWins) {
  QueryResult result = SmallResult();
  result.next_cursor = "stale";
  ResultTrailer fresh;
  fresh.cells_scanned = 99;
  fresh.next_cursor = "fresh";
  VectorSink sink;
  ReplayResult(result, sink, &fresh);
  EXPECT_EQ(sink.result().cells_scanned, 99u);
  EXPECT_EQ(sink.result().next_cursor, "fresh");
}

TEST(CursorTest, RoundTripsAndRejectsGarbage) {
  Cursor cursor{"italy_2012", 42, 12345, 0xdeadbeefcafef00dull};
  std::string token = EncodeCursor(cursor);
  auto decoded = DecodeCursor(token);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cube, "italy_2012");
  EXPECT_EQ(decoded->version, 42u);
  EXPECT_EQ(decoded->position, 12345u);
  EXPECT_EQ(decoded->query_hash, 0xdeadbeefcafef00dull);

  EXPECT_FALSE(DecodeCursor("not base64!").ok());
  EXPECT_FALSE(DecodeCursor("aGVsbG8=").ok());  // valid base64, wrong layout
  EXPECT_FALSE(DecodeCursor("").ok());
  // Tokens are deterministic: same snapshot+position -> same token, so
  // cached and freshly executed answers render identical bytes.
  EXPECT_EQ(token, EncodeCursor(cursor));
}

TEST(CursorTest, CubeNamesMayContainTheSeparator) {
  // The cube name rides last in the token, so an embedded '|' (the field
  // separator) must survive the round trip.
  Cursor cursor{"a|b|c", 7, 99, 1};
  auto decoded = DecodeCursor(EncodeCursor(cursor));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cube, "a|b|c");
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->position, 99u);
}

TEST(CursorTest, QueryHashBindsTheStatementNotThePage) {
  auto hash_of = [](const char* text) {
    auto q = Parse(text);
    EXPECT_TRUE(q.ok()) << text;
    return CursorQueryHash(*q);
  };
  // Page size / offset / FROM pin do not change the stream identity...
  EXPECT_EQ(hash_of("DICE sa=sex=F LIMIT 2"),
            hash_of("DICE sa=sex=F LIMIT 50 OFFSET 10"));
  EXPECT_EQ(hash_of("DICE sa=sex=F"), hash_of("DICE sa=sex=F FROM c@3"));
  // ...but the verb, coordinates, filters and ordering do.
  EXPECT_NE(hash_of("DICE sa=sex=F"), hash_of("SLICE sa=sex=F"));
  EXPECT_NE(hash_of("DICE sa=sex=F"), hash_of("DICE sa=sex=F WHERE T >= 9"));
  EXPECT_NE(hash_of("DICE sa=sex=F"),
            hash_of("DICE sa=sex=F ORDER BY T ASC"));
}

}  // namespace
}  // namespace query
}  // namespace scube
