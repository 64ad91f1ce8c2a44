// Unit tests for the streaming sink layer: writers against hand-built
// results, replay semantics, abort propagation and cursor tokens. The
// end-to-end streamed-vs-materialised equivalence lives in
// streaming_equivalence_test.cc.

#include "query/row_sink.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/csv.h"
#include "query/parser.h"
#include "query/wire_format.h"

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

// --- rendering goldens -------------------------------------------------------
//
// The same rows through all three writers, pinned byte for byte: doubles
// at every %.6g edge (signed zero, the fixed/exponent switch, rounding
// ties, the smallest subnormal, DBL_MAX), labels that need JSON, CSV and
// wire escaping, an undefined-index row and a REVERSALS row with a tag.

std::vector<ResultRow> GoldenRows() {
  std::vector<ResultRow> rows(3);
  ResultRow& a = rows[0];
  a.sa = "sex=\"F\" & note=a\\b";
  a.ca = "region=north, east\r\tx\x01 \xc3\xa9";
  a.t = 123456789012;
  a.m = 0;
  a.units = 4294967295u;
  a.defined = true;
  a.indexes = {0.0, -0.0, 1e-05, 0.0001, 1.0 / 3, 123456.5};
  a.value = 999999.5;
  a.aux = 1234567;
  a.aux2 = 5e-324;
  a.tag = "masked";
  a.skey = std::string("\x00\x7f\x80\xff", 4);

  ResultRow& b = rows[1];
  b.sa = "*";
  b.ca = "*";
  b.t = 1;
  b.m = 1;
  b.units = 0;
  b.defined = true;
  b.indexes = {std::numeric_limits<double>::max(),
               -std::numeric_limits<double>::max(),
               -1e-05,
               -0.0001,
               -1.0 / 3,
               -123456.5};
  b.value = -999999.5;
  b.aux = -1234567;
  b.aux2 = -5e-324;
  b.tag = "inflated, \"x\"\n";

  ResultRow& c = rows[2];
  c.sa = "age=18-38 & sex=M";
  c.ca = "sector=transports";
  c.t = 40;
  c.m = 7;
  c.units = 3;
  c.defined = false;
  c.indexes = {0.25, 0.5, 0.75, 1.0, 1.25, 1.5};
  c.value = 0.1;
  c.aux = 0.125;
  c.aux2 = 2;
  c.tag = "";
  return rows;
}

ResultHeader TopKHeader() {
  ResultHeader header;
  header.verb = Verb::kTopK;
  header.by = indexes::IndexKind::kGini;
  header.has_value = true;
  return header;
}

ResultHeader ReversalsHeader() {
  ResultHeader header;
  header.verb = Verb::kReversals;
  header.by = indexes::IndexKind::kAtkinson;
  header.has_value = true;
  header.has_aux = true;
  header.aux_name = "boundary_child";
  header.has_aux2 = true;
  header.aux2_name = "children";
  header.has_tag = true;
  header.tag_name = "kind";
  return header;
}

/// Renders (header, rows, trailer) through one writer, counting the
/// write callbacks each Row makes.
template <typename Writer>
std::string Render(const ResultHeader& header, const ResultTrailer& trailer,
                   std::vector<size_t>* writes_per_row = nullptr) {
  std::string out;
  size_t writes = 0;
  Writer writer([&](std::string_view chunk) {
    out.append(chunk);
    ++writes;
    return true;
  });
  EXPECT_TRUE(writer.Begin(header));
  for (const ResultRow& row : GoldenRows()) {
    size_t before = writes;
    EXPECT_TRUE(writer.Row(row));
    if (writes_per_row != nullptr) writes_per_row->push_back(writes - before);
  }
  writer.Finish(trailer);
  return out;
}

ResultTrailer GoldenTrailer() {
  ResultTrailer trailer;
  trailer.cells_scanned = 18446744073709551615ull;
  trailer.next_cursor = "c2NxMXwx";
  return trailer;
}

TEST(RenderGoldenTest, JsonBytesArePinned) {
  EXPECT_EQ(Render<JsonWriter>(TopKHeader(), GoldenTrailer()),
            "{\"verb\":\"TOPK\",\"by\":\"gini\","
            "\"rows\":[{\"sa\":\"sex=\\\"F\\\" & note=a\\\\b\","
            "\"ca\":\"region=north, east\\r\\tx\\u0001 \303\251\","
            "\"T\":123456789012,\"M\":0,\"units\":4294967295,"
            "\"indexes\":{\"dissimilarity\":0,\"gini\":-0,"
            "\"information\":1e-05,\"isolation\":0.0001,"
            "\"interaction\":0.333333,\"atkinson\":123456},"
            "\"value\":1e+06},{\"sa\":\"*\",\"ca\":\"*\",\"T\":1,\"M\":1,"
            "\"units\":0,\"indexes\":{\"dissimilarity\":1.79769e+308,"
            "\"gini\":-1.79769e+308,\"information\":-1e-05,"
            "\"isolation\":-0.0001,\"interaction\":-0.333333,"
            "\"atkinson\":-123456},\"value\":-1e+06},"
            "{\"sa\":\"age=18-38 & sex=M\",\"ca\":\"sector=transports\","
            "\"T\":40,\"M\":7,\"units\":3,"
            "\"indexes\":{\"dissimilarity\":null,\"gini\":null,"
            "\"information\":null,\"isolation\":null,\"interaction\":null,"
            "\"atkinson\":null},\"value\":0.1}],"
            "\"cells_scanned\":18446744073709551615,"
            "\"next_cursor\":\"c2NxMXwx\"}");
  EXPECT_EQ(Render<JsonWriter>(ReversalsHeader(), ResultTrailer{}),
            "{\"verb\":\"REVERSALS\",\"by\":\"atkinson\","
            "\"rows\":[{\"sa\":\"sex=\\\"F\\\" & note=a\\\\b\","
            "\"ca\":\"region=north, east\\r\\tx\\u0001 \303\251\","
            "\"T\":123456789012,\"M\":0,\"units\":4294967295,"
            "\"indexes\":{\"dissimilarity\":0,\"gini\":-0,"
            "\"information\":1e-05,\"isolation\":0.0001,"
            "\"interaction\":0.333333,\"atkinson\":123456},\"value\":1e+06,"
            "\"boundary_child\":1.23457e+06,\"children\":4.94066e-324,"
            "\"kind\":\"masked\"},{\"sa\":\"*\",\"ca\":\"*\",\"T\":1,"
            "\"M\":1,\"units\":0,"
            "\"indexes\":{\"dissimilarity\":1.79769e+308,"
            "\"gini\":-1.79769e+308,\"information\":-1e-05,"
            "\"isolation\":-0.0001,\"interaction\":-0.333333,"
            "\"atkinson\":-123456},\"value\":-1e+06,"
            "\"boundary_child\":-1.23457e+06,\"children\":-4.94066e-324,"
            "\"kind\":\"inflated, \\\"x\\\"\\n\"},"
            "{\"sa\":\"age=18-38 & sex=M\",\"ca\":\"sector=transports\","
            "\"T\":40,\"M\":7,\"units\":3,"
            "\"indexes\":{\"dissimilarity\":null,\"gini\":null,"
            "\"information\":null,\"isolation\":null,\"interaction\":null,"
            "\"atkinson\":null},\"value\":0.1,\"boundary_child\":0.125,"
            "\"children\":2,\"kind\":\"\"}],\"cells_scanned\":0}");
}

TEST(RenderGoldenTest, CsvBytesArePinned) {
  EXPECT_EQ(Render<CsvWriter>(TopKHeader(), GoldenTrailer()),
            "sa,ca,T,M,units,dissimilarity,gini,information,isolation,"
            "interaction,atkinson,value\n"
            "\"sex=\"\"F\"\" & note=a\\b\",\"region=north, east\r\t"
            "x\001 \303\251\",123456789012,0,4294967295,0,-0,1e-05,0.0001,"
            "0.333333,123456,1e+06\n"
            "*,*,1,1,0,1.79769e+308,-1.79769e+308,-1e-05,-0.0001,-0.333333,"
            "-123456,-1e+06\n"
            "age=18-38 & sex=M,sector=transports,40,7,3,,,,,,,0.1\n"
            "# next_cursor: c2NxMXwx\n");
  EXPECT_EQ(Render<CsvWriter>(ReversalsHeader(), ResultTrailer{}),
            "sa,ca,T,M,units,dissimilarity,gini,information,isolation,"
            "interaction,atkinson,value,boundary_child,children,kind\n"
            "\"sex=\"\"F\"\" & note=a\\b\",\"region=north, east\r\t"
            "x\001 \303\251\",123456789012,0,4294967295,0,-0,1e-05,0.0001,"
            "0.333333,123456,1e+06,1.23457e+06,4.94066e-324,masked\n"
            "*,*,1,1,0,1.79769e+308,-1.79769e+308,-1e-05,-0.0001,-0.333333,"
            "-123456,-1e+06,-1.23457e+06,-4.94066e-324,\"inflated,"
            " \"\"x\"\"\n"
            "\"\n"
            "age=18-38 & sex=M,sector=transports,40,7,3,,,,,,,0.1,0.125,2,"
            "\n");
}

TEST(RenderGoldenTest, WireBytesArePinned) {
  EXPECT_EQ(Render<WireWriter>(TopKHeader(), GoldenTrailer()),
            "H\t4\t1\t1\t0\t0\t0\t\t\t\n"
            "R\t007f80ff\tsex=\"F\" & note=a\\\\b\tregion=north,"
            " east\\r\\tx\001 \303\251\t123456789012\t0\t4294967295\t1\t"
            "0000000000000000\t8000000000000000\t3ee4f8b588e368f1\t"
            "3f1a36e2eb1c432d\t3fd5555555555555\t40fe240800000000\t"
            "412e847f00000000\t4132d68700000000\t0000000000000001\tmasked\n"
            "R\t\t*\t*\t1\t1\t0\t1\t7fefffffffffffff\tffefffffffffffff\t"
            "bee4f8b588e368f1\tbf1a36e2eb1c432d\tbfd5555555555555\t"
            "c0fe240800000000\tc12e847f00000000\tc132d68700000000\t"
            "8000000000000001\tinflated, \"x\"\\n\n"
            "R\t\tage=18-38 & sex=M\tsector=transports\t40\t7\t3\t0\t"
            "3fd0000000000000\t3fe0000000000000\t3fe8000000000000\t"
            "3ff0000000000000\t3ff4000000000000\t3ff8000000000000\t"
            "3fb999999999999a\t3fc0000000000000\t4000000000000000\t\n"
            "T\t18446744073709551615\tc2NxMXwx\n");
  EXPECT_EQ(Render<WireWriter>(ReversalsHeader(), ResultTrailer{}),
            "H\t6\t5\t1\t1\t1\t1\tboundary_child\tchildren\tkind\n"
            "R\t007f80ff\tsex=\"F\" & note=a\\\\b\tregion=north,"
            " east\\r\\tx\001 \303\251\t123456789012\t0\t4294967295\t1\t"
            "0000000000000000\t8000000000000000\t3ee4f8b588e368f1\t"
            "3f1a36e2eb1c432d\t3fd5555555555555\t40fe240800000000\t"
            "412e847f00000000\t4132d68700000000\t0000000000000001\tmasked\n"
            "R\t\t*\t*\t1\t1\t0\t1\t7fefffffffffffff\tffefffffffffffff\t"
            "bee4f8b588e368f1\tbf1a36e2eb1c432d\tbfd5555555555555\t"
            "c0fe240800000000\tc12e847f00000000\tc132d68700000000\t"
            "8000000000000001\tinflated, \"x\"\\n\n"
            "R\t\tage=18-38 & sex=M\tsector=transports\t40\t7\t3\t0\t"
            "3fd0000000000000\t3fe0000000000000\t3fe8000000000000\t"
            "3ff0000000000000\t3ff4000000000000\t3ff8000000000000\t"
            "3fb999999999999a\t3fc0000000000000\t4000000000000000\t\n"
            "T\t0\t\n");
}

TEST(RenderGoldenTest, EachRowIsOneWrite) {
  // A row reaches the transport whole: the chunked writer never sees a
  // half-rendered row, and a refused write stops at a row boundary.
  std::vector<size_t> json, csv, wire;
  Render<JsonWriter>(ReversalsHeader(), ResultTrailer{}, &json);
  Render<CsvWriter>(ReversalsHeader(), ResultTrailer{}, &csv);
  Render<WireWriter>(ReversalsHeader(), ResultTrailer{}, &wire);
  const std::vector<size_t> once(GoldenRows().size(), 1);
  EXPECT_EQ(json, once);
  EXPECT_EQ(csv, once);
  EXPECT_EQ(wire, once);
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
