// Unit tests for the streaming sink layer: writers against hand-built
// results, replay semantics, abort propagation and cursor tokens. The
// end-to-end streamed-vs-materialised equivalence lives in
// streaming_equivalence_test.cc.

#include "query/row_sink.h"

#include <gtest/gtest.h>

#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/scatter.h"
#include "common/csv.h"
#include "common/random.h"
#include "common/string_util.h"
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
            "H\t0\t4\t1\t1\t0\t0\t0\t\t\t\n"
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
            "H\t0\t6\t5\t1\t1\t1\t1\tboundary_child\tchildren\tkind\n"
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

// --- hostile peer input -------------------------------------------------------
//
// Peers control four inputs the serving layer decodes: every line of a
// shard's wire stream (ParseWireLine), a client's resume cursor
// (DecodeCursor, on a node and on a router), and a shard's GET /cubes and
// error bodies (cluster::ParseCubesJson, cluster::ParseErrorBody). Seeds
// 1-2000 each mutate one input from a corpus of the golden rows' wire
// lines, real node and router cursors, and /cubes and error bodies as
// scubed serves them, and every input goes through every decoder. Each
// must come back OK, ParseError or InvalidArgument; a decoded cursor must
// re-encode to a token that decodes to the same value, and an accepted
// /cubes body must render back to one that parses to the same cubes. A
// failure names its seed, and the printed tally must show every error path
// of the cursor decoder and of the /cubes parser firing.

/// A cursor plaintext as the URL-safe token EncodeCursor makes.
std::string CursorToken(const std::string& plain) {
  std::string token = Base64Encode(plain);
  for (char& c : token) {
    if (c == '+') c = '-';
    if (c == '/') c = '_';
  }
  return token;
}

/// The plaintext of a cursor token.
std::string CursorPlain(const std::string& token) {
  std::string standard = token;
  for (char& c : standard) {
    if (c == '-') c = '+';
    if (c == '_') c = '/';
  }
  return Base64Decode(standard).value();
}

/// A GET /cubes body in the front-end's HandleCubes layout.
std::string RenderCubesJson(const std::vector<CubeInfo>& cubes) {
  std::string body = "{\"cubes\":[";
  for (size_t i = 0; i < cubes.size(); ++i) {
    const CubeInfo& info = cubes[i];
    if (i > 0) body += ',';
    body += "{\"name\":" + JsonQuote(info.name) +
            ",\"version\":" + std::to_string(info.version) + ",\"retained\":[";
    for (size_t j = 0; j < info.retained.size(); ++j) {
      if (j > 0) body += ',';
      body += std::to_string(info.retained[j]);
    }
    body += "],\"cells\":" + std::to_string(info.cells) +
            ",\"defined_cells\":" + std::to_string(info.defined_cells) + "}";
  }
  return body + "]}\n";
}

/// One to three mutations of `text`, whose fields are split by `sep`.
std::string MutateFields(std::string text, char sep, Rng* rng) {
  static const char* const kHostile[] = {
      "18446744073709551616", "99999999999999999999", "-1",
      "-9223372036854775808", "9223372036854775808",  "zz",
      "0x10",                 "ffffffffffffffffff",   "",
      "a|b||c|",              "|||",                  "\\",
  };
  const int mutations = 1 + static_cast<int>(rng->NextBounded(3));
  for (int m = 0; m < mutations; ++m) {
    std::vector<std::string> fields = Split(text, sep);
    switch (rng->NextBounded(8)) {
      case 0:  // byte flip
        if (!text.empty()) {
          text[rng->NextBounded(text.size())] ^=
              static_cast<char>(1 + rng->NextBounded(255));
        }
        break;
      case 1:  // truncation
        text.resize(rng->NextBounded(text.size() + 1));
        break;
      case 2:    // a separator or backslash dropped
      case 3: {  // ... or doubled
        std::vector<size_t> at;
        for (size_t i = 0; i < text.size(); ++i) {
          if (text[i] == sep || text[i] == '\\') at.push_back(i);
        }
        if (at.empty()) break;
        const size_t i = at[rng->NextBounded(at.size())];
        if (rng->NextBool(0.5)) {
          text.erase(i, 1);
        } else {
          text.insert(i, 1, text[i]);
        }
        break;
      }
      case 4: {  // two fields swapped
        std::swap(fields[rng->NextBounded(fields.size())],
                  fields[rng->NextBounded(fields.size())]);
        text = Join(fields, std::string(1, sep));
        break;
      }
      case 5: {  // a field replaced by a hostile number, hex or name
        fields[rng->NextBounded(fields.size())] =
            kHostile[rng->NextBounded(std::size(kHostile))];
        text = Join(fields, std::string(1, sep));
        break;
      }
      case 6:  // a cube name full of '|'
        text += std::string(1 + rng->NextBounded(4), '|') + "x|";
        break;
      case 7: {  // a run of digits replaced by a hostile number
        std::vector<std::pair<size_t, size_t>> runs;
        for (size_t i = 0; i < text.size();) {
          size_t j = i;
          while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
          if (j > i) runs.emplace_back(i, j - i);
          i = j > i ? j : i + 1;
        }
        if (runs.empty()) break;
        const auto [at, length] = runs[rng->NextBounded(runs.size())];
        text.replace(at, length, kHostile[rng->NextBounded(5)]);
        break;
      }
    }
  }
  return text;
}

/// Message fragment -> error path, for the cursor decoder and for the
/// /cubes parser.
const std::vector<std::pair<std::string, std::string>>& PeerErrorPaths() {
  static const std::vector<std::pair<std::string, std::string>> paths = {
      {"malformed cursor: not base64", "cursor: not base64"},
      {"malformed cursor: bad layout", "cursor: bad layout"},
      {"malformed cursor: empty cube name", "cursor: empty cube name"},
      {"malformed cursor: bad version", "cursor: bad version"},
      {"malformed cursor: bad position", "cursor: bad position"},
      {"malformed cursor: bad query hash", "cursor: bad query hash"},
      {"malformed /cubes body: bad cube name", "/cubes: bad cube name"},
      {"malformed /cubes body: bad version", "/cubes: bad version"},
      {"malformed /cubes body: missing retained", "/cubes: missing retained"},
      {"malformed /cubes body: bad retained list", "/cubes: bad retained"},
      {"malformed /cubes body: bad cell counts", "/cubes: bad cell counts"},
  };
  return paths;
}

TEST(PeerDecoderFuzzTest, MutatedPeerInputsAlwaysEndInAStatus) {
  std::vector<std::string> lines;
  for (const ResultHeader& header : {TopKHeader(), ReversalsHeader()}) {
    ResultHeader versioned = header;
    versioned.version = 3;
    std::string wire = Render<WireWriter>(versioned, GoldenTrailer());
    wire += WireStatusLine(StatusCode::kNotFound, "no\tsuch\\cube", 3, true,
                           3);
    for (const std::string& line : Split(wire, '\n')) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  // Node cursors hold one position, router cursors one per shard; the
  // first is the token GoldenTranscriptTest pins.
  std::vector<std::string> cursors;
  for (const Cursor& cursor :
       {Cursor{"default", 1, 0x8c8f5f7ab4fcbba6ULL, {1}},
        Cursor{"sectors", 2, 0, {9223372036854775807ULL}},
        Cursor{"default", 1, 0, {0}},
        Cursor{"cube|with|pipes", 12, 0xdeadbeefcafef00dULL, {0, 17, 3}},
        Cursor{"italy_2012", 9223372036854775807ULL, 0xffffffffffffffffULL,
               {5, 0, 0, 1}}}) {
    cursors.push_back(CursorPlain(EncodeCursor(cursor)));
  }
  // What scubed --demo answers: GET /cubes on a node, on shard 0 of three,
  // on their router and on a node with no cubes; and the error bodies of a
  // shard refusing a statement before it streams.
  const std::vector<std::string> cubes_bodies = {
      "{\"cubes\":[{\"name\":\"default\",\"version\":1,\"retained\":[1],"
      "\"cells\":1556,\"defined_cells\":1531},{\"name\":\"sectors\","
      "\"version\":1,\"retained\":[1],\"cells\":1555,"
      "\"defined_cells\":1530}]}\n",
      "{\"cubes\":[{\"name\":\"default\",\"version\":1,\"retained\":[1],"
      "\"cells\":506,\"defined_cells\":496},{\"name\":\"sectors\","
      "\"version\":1,\"retained\":[1],\"cells\":513,"
      "\"defined_cells\":503}]}\n",
      "{\"cubes\":[{\"name\":\"default\",\"version\":1,\"retained\":[1],"
      "\"cells\":2623,\"defined_cells\":2578},{\"name\":\"sectors\","
      "\"version\":1,\"retained\":[1],\"cells\":2634,"
      "\"defined_cells\":2590}]}\n",
      "{\"cubes\":[]}\n",
  };
  const std::vector<std::string> error_bodies = {
      "{\"error\":\"no cube published under 'nope'\"}\n",
      "{\"error\":\"no version 7 of cube 'default' (evicted or never "
      "published)\"}\n",
      "{\"error\":\"unknown value 'a\\\"b\\\\\\\\c' for attribute "
      "'gender'\"}\n",
      "{\"error\":\"unknown value 'tab\\there' for attribute 'gender'\"}\n",
      "{\"error\":\"col 6: expected an integer for TOPK count\"}\n",
      "{\"error\":\"malformed cursor: not base64\"}\n",
  };
  // Unmutated, every input decodes: the readers take all the writers write,
  // the golden trailer's UINT64_MAX scan count included.
  for (const std::string& line : lines) {
    EXPECT_TRUE(ParseWireLine(line).ok()) << line;
  }
  for (const std::string& plain : cursors) {
    EXPECT_TRUE(DecodeCursor(CursorToken(plain)).ok()) << plain;
  }
  for (const std::string& body : cubes_bodies) {
    auto cubes = cluster::ParseCubesJson(body);
    ASSERT_TRUE(cubes.ok()) << cubes.status();
    EXPECT_EQ(RenderCubesJson(*cubes), body);
  }
  EXPECT_EQ(cluster::ParseErrorBody(error_bodies[2]),
            "unknown value 'a\"b\\\\c' for attribute 'gender'");

  std::map<std::string, size_t> tally;
  for (const auto& [fragment, path] : PeerErrorPaths()) tally[path] = 0;
  auto expected = [&tally](const Status& status) {
    if (status.ok()) return true;
    for (const auto& [fragment, path] : PeerErrorPaths()) {
      if (status.message().find(fragment) != std::string::npos) {
        ++tally[path];
        break;
      }
    }
    return status.code() == StatusCode::kParseError ||
           status.code() == StatusCode::kInvalidArgument;
  };
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    std::vector<std::string> inputs;
    switch (rng.NextBounded(4)) {
      case 0:
        inputs.push_back(
            MutateFields(lines[rng.NextBounded(lines.size())], '\t', &rng));
        break;
      case 1: {
        const std::string plain = MutateFields(
            cursors[rng.NextBounded(cursors.size())], '|', &rng);
        std::string token = CursorToken(plain);
        // Some tokens are mangled after encoding: base64 itself is hostile.
        if (rng.NextBool(0.25)) token = MutateFields(token, '_', &rng);
        inputs = {plain, token};
        break;
      }
      case 2:
        inputs.push_back(MutateFields(
            cubes_bodies[rng.NextBounded(cubes_bodies.size())], ',', &rng));
        break;
      case 3:
        inputs.push_back(MutateFields(
            error_bodies[rng.NextBounded(error_bodies.size())], '\\', &rng));
        break;
    }
    for (const std::string& bytes : inputs) {
      auto event = ParseWireLine(bytes);
      EXPECT_TRUE(expected(event.status())) << event.status();
      EXPECT_FALSE(cluster::ParseErrorBody(bytes).empty());

      auto cubes = cluster::ParseCubesJson(bytes);
      EXPECT_TRUE(expected(cubes.status())) << cubes.status();
      if (cubes.ok()) {
        auto again = cluster::ParseCubesJson(RenderCubesJson(*cubes));
        ASSERT_TRUE(again.ok()) << again.status();
        EXPECT_EQ(RenderCubesJson(*again), RenderCubesJson(*cubes));
      }

      auto cursor = DecodeCursor(bytes);
      EXPECT_TRUE(expected(cursor.status())) << cursor.status();
      if (!cursor.ok()) continue;
      auto again = DecodeCursor(EncodeCursor(*cursor));
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(again->cube, cursor->cube);
      EXPECT_EQ(again->version, cursor->version);
      EXPECT_EQ(again->query_hash, cursor->query_hash);
      EXPECT_EQ(again->positions, cursor->positions);
    }
  }
  for (const auto& [path, count] : tally) {
    std::cout << "  " << path << ": " << count << "\n";
    EXPECT_GT(count, 0u) << "error path never fired: " << path;
  }
}

// A shard's /cubes numbers must fit in 64 bits: the parser used to wrap
// past UINT64_MAX, so "version":18446744073709551616 read as version 0.
TEST(PeerDecoderFuzzTest, CubesNumbersPastUint64MaxAreRejected) {
  const std::string kMax = "18446744073709551615";
  const std::string kPastMax = "18446744073709551616";
  auto body = [](const std::string& version, const std::string& retained,
                 const std::string& cells) {
    return "{\"cubes\":[{\"name\":\"default\",\"version\":" + version +
           ",\"retained\":[1," + retained + "],\"cells\":" + cells +
           ",\"defined_cells\":1}]}\n";
  };
  auto at_max = cluster::ParseCubesJson(body(kMax, kMax, kMax));
  ASSERT_TRUE(at_max.ok()) << at_max.status();
  ASSERT_EQ(at_max->size(), 1u);
  EXPECT_EQ((*at_max)[0].version, std::numeric_limits<uint64_t>::max());
  EXPECT_EQ((*at_max)[0].retained.back(),
            std::numeric_limits<uint64_t>::max());
  EXPECT_EQ((*at_max)[0].cells, std::numeric_limits<uint64_t>::max());

  for (const std::string& past :
       {body(kPastMax, "1", "1"), body("1", kPastMax, "1"),
        body("1", "1", kPastMax)}) {
    auto cubes = cluster::ParseCubesJson(past);
    EXPECT_EQ(cubes.status().code(), StatusCode::kParseError) << past;
  }
}

TEST(CursorTest, RoundTripsAndRejectsGarbage) {
  Cursor cursor{"italy_2012", 42, 0xdeadbeefcafef00dull, {12345}};
  std::string token = EncodeCursor(cursor);
  auto decoded = DecodeCursor(token);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cube, "italy_2012");
  EXPECT_EQ(decoded->version, 42u);
  EXPECT_EQ(decoded->positions, std::vector<uint64_t>{12345u});
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
  Cursor cursor{"a|b|c", 7, 1, {99}};
  auto decoded = DecodeCursor(EncodeCursor(cursor));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cube, "a|b|c");
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->positions, std::vector<uint64_t>{99u});
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
