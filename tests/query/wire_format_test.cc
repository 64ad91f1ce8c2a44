// The shard wire format must survive a full round trip bit-exactly:
// whatever a shard's WireWriter emits, the router's ParseWireLine must
// reconstruct — labels with embedded separators, doubles down to the NaN
// payload, raw merge-key bytes — because the router re-renders rows
// through the same writers a single node uses and any drift breaks
// byte-identity. Plus the merge-key ordering contracts the k-way merge
// stands on.

#include "query/wire_format.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cube/cell.h"
#include "query/merge_key.h"

namespace scube {
namespace query {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Runs the writer over one (header, rows, trailer) answer and returns
/// the emitted lines (trailing newlines stripped).
std::vector<std::string> EmitLines(const ResultHeader& header,
                                   const std::vector<ResultRow>& rows,
                                   const ResultTrailer& trailer) {
  std::string out;
  WireWriter writer([&out](std::string_view chunk) {
    out.append(chunk);
    return true;
  });
  EXPECT_TRUE(writer.Begin(header));
  for (const ResultRow& row : rows) EXPECT_TRUE(writer.Row(row));
  writer.Finish(trailer);

  std::vector<std::string> lines;
  size_t start = 0;
  while (start < out.size()) {
    size_t nl = out.find('\n', start);
    EXPECT_NE(nl, std::string::npos) << "unterminated wire line";
    lines.push_back(out.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(WireFormatTest, HeaderRoundTripsWithHostileNames) {
  ResultHeader header;
  header.version = UINT64_MAX;
  header.verb = Verb::kReversals;
  header.by = indexes::IndexKind::kAtkinson;
  header.has_value = true;
  header.has_aux = true;
  header.has_aux2 = true;
  header.has_tag = true;
  header.aux_name = "child\tvalue";       // embedded tab
  header.aux2_name = "n\\children";       // embedded backslash
  header.tag_name = "status\r\nline";     // embedded CR/LF

  auto lines = EmitLines(header, {}, {});
  ASSERT_GE(lines.size(), 1u);
  auto event = ParseWireLine(lines[0]);
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(event->kind, WireEvent::Kind::kHeader);
  EXPECT_EQ(event->header.version, UINT64_MAX);
  EXPECT_EQ(event->header.verb, Verb::kReversals);
  EXPECT_EQ(event->header.by, indexes::IndexKind::kAtkinson);
  EXPECT_TRUE(event->header.has_value);
  EXPECT_TRUE(event->header.has_aux);
  EXPECT_TRUE(event->header.has_aux2);
  EXPECT_TRUE(event->header.has_tag);
  EXPECT_EQ(event->header.aux_name, "child\tvalue");
  EXPECT_EQ(event->header.aux2_name, "n\\children");
  EXPECT_EQ(event->header.tag_name, "status\r\nline");
}

TEST(WireFormatTest, RowRoundTripsBitExact) {
  ResultRow row;
  row.sa = "sex=F & age\t18-25";   // tab inside a label
  row.ca = "prov\\ince=V\nR";      // backslash and newline
  row.t = 123456789;
  row.m = 42;
  row.units = 7;
  row.defined = true;
  const double hostile[] = {
      0.0,
      -0.0,
      1.0 / 3.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
  };
  for (size_t i = 0; i < indexes::kNumIndexKinds; ++i) {
    row.indexes[i] = hostile[i % (sizeof(hostile) / sizeof(hostile[0]))];
  }
  row.value = std::nan("");  // NaN payload must survive too
  row.aux = -0.0;
  row.aux2 = 6.02214076e23;
  row.tag = "masked\ttag";
  // Raw merge-key bytes, including NUL and high bytes.
  row.skey = std::string("\x00\x01\x7f\xff\t\n\\", 7);

  ResultHeader header;
  header.has_value = true;
  header.has_aux = true;
  header.has_aux2 = true;
  header.has_tag = true;

  auto lines = EmitLines(header, {row}, {});
  ASSERT_GE(lines.size(), 2u);
  auto event = ParseWireLine(lines[1]);
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(event->kind, WireEvent::Kind::kRow);
  const ResultRow& parsed = event->row;
  EXPECT_EQ(parsed.sa, row.sa);
  EXPECT_EQ(parsed.ca, row.ca);
  EXPECT_EQ(parsed.t, row.t);
  EXPECT_EQ(parsed.m, row.m);
  EXPECT_EQ(parsed.units, row.units);
  EXPECT_EQ(parsed.defined, row.defined);
  for (size_t i = 0; i < indexes::kNumIndexKinds; ++i) {
    EXPECT_EQ(Bits(parsed.indexes[i]), Bits(row.indexes[i])) << "index " << i;
  }
  EXPECT_EQ(Bits(parsed.value), Bits(row.value)) << "NaN payload drifted";
  EXPECT_EQ(Bits(parsed.aux), Bits(row.aux)) << "-0.0 must stay negative";
  EXPECT_EQ(Bits(parsed.aux2), Bits(row.aux2));
  EXPECT_EQ(parsed.tag, row.tag);
  EXPECT_EQ(parsed.skey, row.skey) << "merge-key bytes must round-trip";
}

TEST(WireFormatTest, TrailerRoundTripsWithAndWithoutCursor) {
  ResultTrailer with_cursor;
  with_cursor.cells_scanned = 987654;
  with_cursor.next_cursor = "c2N4MX...|token";
  auto lines = EmitLines({}, {}, with_cursor);
  ASSERT_GE(lines.size(), 2u);
  auto event = ParseWireLine(lines.back());
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(event->kind, WireEvent::Kind::kTrailer);
  EXPECT_EQ(event->cells_scanned, 987654u);
  EXPECT_EQ(event->next_cursor, "c2N4MX...|token");

  auto plain_lines = EmitLines({}, {}, {});
  auto plain = ParseWireLine(plain_lines.back());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->kind, WireEvent::Kind::kTrailer);
  EXPECT_EQ(plain->cells_scanned, 0u);
  EXPECT_TRUE(plain->next_cursor.empty());
}

TEST(WireFormatTest, StatusLineRoundTrips) {
  std::string line = WireStatusLine(StatusCode::kNotFound,
                                    "no cube\tnamed 'x'\nretry", 17,
                                    /*cache_hit=*/true, /*rows=*/359);
  ASSERT_FALSE(line.empty());
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  auto event = ParseWireLine(line);
  ASSERT_TRUE(event.ok()) << event.status();
  ASSERT_EQ(event->kind, WireEvent::Kind::kStatus);
  EXPECT_EQ(event->code, StatusCode::kNotFound);
  EXPECT_EQ(event->message, "no cube\tnamed 'x'\nretry");
  EXPECT_EQ(event->version, 17u);
  EXPECT_TRUE(event->cache_hit);
  EXPECT_EQ(event->rows, 359u);

  std::string ok = WireStatusLine(StatusCode::kOk, "", 1, false, 0);
  ok.pop_back();
  auto ok_event = ParseWireLine(ok);
  ASSERT_TRUE(ok_event.ok());
  EXPECT_EQ(ok_event->code, StatusCode::kOk);
  EXPECT_TRUE(ok_event->message.empty());
  EXPECT_FALSE(ok_event->cache_hit);
}

TEST(WireFormatTest, MalformedLinesAreParseErrors) {
  for (const char* bad : {
           "",                 // empty
           "X\tnope",          // unknown event kind
           "R\tonly\ttwo",     // truncated row
           "H\t999",           // truncated header
           "H\t4\t1\t1\t0\t0\t0\t\t\t",  // header without its version
           "H\t-1\t4\t1\t1\t0\t0\t0\t\t\t",  // negative version
           "T\tnot-a-number\t",
           "S\t12345\tmsg\t1\t0\t0",  // out-of-range status code
       }) {
    auto event = ParseWireLine(bad);
    EXPECT_FALSE(event.ok()) << "accepted malformed line: " << bad;
  }
}

TEST(WireFormatTest, WireDoubleIsTheRawBitPattern) {
  EXPECT_EQ(WireDouble(1.0), "3ff0000000000000");
  EXPECT_EQ(WireDouble(0.0), "0000000000000000");
  EXPECT_EQ(WireDouble(-0.0), "8000000000000000");
}

// --- merge-key ordering contracts ------------------------------------

TEST(MergeKeyTest, DoubleKeyOrderMatchesNumericOrder) {
  const double sorted[] = {
      -std::numeric_limits<double>::infinity(), -1e300, -2.5, -1e-300,
      0.0, 1e-300, 0.5, 1.0, 3.14159, 1e300,
      std::numeric_limits<double>::infinity()};
  const size_t n = sizeof(sorted) / sizeof(sorted[0]);
  for (size_t i = 0; i + 1 < n; ++i) {
    std::string lo, hi;
    AppendDoubleKey(sorted[i], /*descending=*/false, &lo);
    AppendDoubleKey(sorted[i + 1], /*descending=*/false, &hi);
    EXPECT_LT(lo, hi) << sorted[i] << " vs " << sorted[i + 1];

    std::string lo_desc, hi_desc;
    AppendDoubleKey(sorted[i], /*descending=*/true, &lo_desc);
    AppendDoubleKey(sorted[i + 1], /*descending=*/true, &hi_desc);
    EXPECT_GT(lo_desc, hi_desc) << "descending must invert the order";
  }
  // -0.0 and +0.0 compare equal, so their keys must be identical — two
  // shards disagreeing on the zero sign must not disagree on order.
  std::string pos, neg;
  AppendDoubleKey(0.0, false, &pos);
  AppendDoubleKey(-0.0, false, &neg);
  EXPECT_EQ(pos, neg);
}

TEST(MergeKeyTest, ItemsetKeyOrderMatchesItemsetOrder) {
  // A prefix itemset sorts before its extensions, matching Itemset::<.
  const std::vector<std::vector<fpm::ItemId>> sorted = {
      {}, {1}, {1, 2}, {1, 3}, {2}, {2, 3}, {3}};
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    std::string a, b;
    AppendItemsetKey(fpm::Itemset(std::vector<fpm::ItemId>(sorted[i])), &a);
    AppendItemsetKey(fpm::Itemset(std::vector<fpm::ItemId>(sorted[i + 1])),
                     &b);
    EXPECT_LT(a, b) << "itemset key order broke at index " << i;
  }
}

TEST(MergeKeyTest, CoordKeyOrderMatchesCellCoordinateOrder) {
  using cube::CellCoordinates;
  // CellCoordinates orders by (|sa|+|ca|, sa, ca) — size-major.
  std::vector<CellCoordinates> coords = {
      {fpm::Itemset(), fpm::Itemset()},
      {fpm::Itemset({1}), fpm::Itemset()},
      {fpm::Itemset(), fpm::Itemset({5})},
      {fpm::Itemset({1}), fpm::Itemset({5})},
      {fpm::Itemset({1, 2}), fpm::Itemset()},
      {fpm::Itemset({1, 2}), fpm::Itemset({5, 6})},
  };
  std::sort(coords.begin(), coords.end());
  for (size_t i = 0; i + 1 < coords.size(); ++i) {
    std::string a, b;
    AppendCoordKey(coords[i], &a);
    AppendCoordKey(coords[i + 1], &b);
    EXPECT_LT(a, b) << "coordinate key order broke at index " << i;
  }
}

}  // namespace
}  // namespace query
}  // namespace scube
