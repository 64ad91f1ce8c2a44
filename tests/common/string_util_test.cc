#include "common/string_util.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/random.h"

namespace scube {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("solo", ';'), (std::vector<std::string>{"solo"}));
}

TEST(JoinTest, RoundTripsSplit) {
  std::vector<std::string> parts{"sex=F", "age=young", "region=north"};
  EXPECT_EQ(Join(parts, ","), "sex=F,age=young,region=north");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"one"}, ","), "one");
}

TEST(TrimTest, RemovesAsciiWhitespace) {
  EXPECT_EQ(Trim("  hello "), "hello");
  EXPECT_EQ(Trim("\t\r\nx\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(CaseTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("GeNdEr"), "gender");
  EXPECT_EQ(ToLower("ABC-123"), "abc-123");
}

TEST(ParseInt64Test, ValidInputs) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("  123 ").value(), 123);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(ParseInt64Test, InvalidInputs) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.5").value(), 0.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("0.5bad").ok());
}

TEST(ParseDoubleTest, UnderflowReadsAsTheRoundedValueOverflowFails) {
  // strtod flags both with ERANGE; only overflow is out of range.
  const double min_subnormal = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(ParseDouble("4.94066e-324").value(), min_subnormal);
  EXPECT_EQ(ParseDouble("5e-324").value(), min_subnormal);
  EXPECT_EQ(ParseDouble("1e-310").value(), 1e-310);
  EXPECT_EQ(ParseDouble("1e-400").value(), 0.0);
  auto overflow = ParseDouble("1e400");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().message(), "double out of range: 1e400");
  EXPECT_FALSE(ParseDouble("-1e400").ok());
}

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("hello world"), "hello world");
  EXPECT_EQ(JsonQuote("sector=IT"), "\"sector=IT\"");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\path\\to"), "C:\\\\path\\\\to");
  EXPECT_EQ(JsonQuote("\""), "\"\\\"\"");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\rb");
  EXPECT_EQ(JsonEscape("a\bb"), "a\\bb");
  EXPECT_EQ(JsonEscape("a\fb"), "a\\fb");
  EXPECT_EQ(JsonEscape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(JsonEscape(std::string("\x1f", 1)), "\\u001f");
}

TEST(JsonEscapeTest, Utf8SurvivesVerbatim) {
  // Multi-byte sequences are above 0x1f per byte: no mangling.
  EXPECT_EQ(JsonEscape("città"), "città");
  EXPECT_EQ(JsonEscape("北京"), "北京");
}

TEST(ParseHexU64Test, ParsesAndRejects) {
  EXPECT_EQ(ParseHexU64("0").value(), 0u);
  EXPECT_EQ(ParseHexU64("ff").value(), 255u);
  EXPECT_EQ(ParseHexU64("DEADbeef").value(), 0xdeadbeefu);
  EXPECT_EQ(ParseHexU64("ffffffffffffffff").value(), UINT64_MAX);
  EXPECT_FALSE(ParseHexU64("").ok());
  EXPECT_FALSE(ParseHexU64("0x10").ok());
  EXPECT_FALSE(ParseHexU64("zz").ok());
  EXPECT_FALSE(ParseHexU64("10000000000000000").ok());  // 2^64: overflow
}

TEST(Base64Test, EncodesKnownVectors) {
  // RFC 4648 test vectors.
  EXPECT_EQ(Base64Encode(""), "");
  EXPECT_EQ(Base64Encode("f"), "Zg==");
  EXPECT_EQ(Base64Encode("fo"), "Zm8=");
  EXPECT_EQ(Base64Encode("foo"), "Zm9v");
  EXPECT_EQ(Base64Encode("foob"), "Zm9vYg==");
  EXPECT_EQ(Base64Encode("fooba"), "Zm9vYmE=");
  EXPECT_EQ(Base64Encode("foobar"), "Zm9vYmFy");
}

TEST(Base64Test, RoundTripsBinary) {
  std::string all;
  for (int i = 0; i < 256; ++i) all += static_cast<char>(i);
  auto decoded = Base64Decode(Base64Encode(all));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, all);
}

TEST(Base64Test, RejectsMalformedInput) {
  EXPECT_FALSE(Base64Decode("abc").ok());     // not a multiple of 4
  EXPECT_FALSE(Base64Decode("ab!=").ok());    // invalid character
  EXPECT_FALSE(Base64Decode("=abc").ok());    // padding up front
  EXPECT_FALSE(Base64Decode("a=bc").ok());    // data after padding
  EXPECT_FALSE(Base64Decode("ab==cdef").ok());  // padding mid-stream
  EXPECT_TRUE(Base64Decode("").ok());
}

TEST(FormatTest, DoubleAndCommas) {
  EXPECT_EQ(FormatDouble(0.78125, 2), "0.78");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(3600000), "3,600,000");
  EXPECT_EQ(FormatWithCommas(-2150000), "-2,150,000");
}

TEST(JsonEscapeTest, AppendJsonQuotedMatchesJsonQuote) {
  const std::string text("a\"b\\c\n\x01\x1f d\xc3\xa9", 12);
  std::string out = "x";
  AppendJsonQuoted(text, &out);
  EXPECT_EQ(out, "x" + JsonQuote(text));
  EXPECT_EQ(out, "x\"a\\\"b\\\\c\\n\\u0001\\u001f d\xc3\xa9\"");
}

TEST(FormatTest, AppendUintWritesEveryDigit) {
  std::string out;
  AppendUint(0, &out);
  out += ' ';
  AppendUint(1234567, &out);
  out += ' ';
  AppendUint(UINT64_MAX, &out);
  EXPECT_EQ(out, "0 1234567 18446744073709551615");
}

/// The oracle: what the result rows printed before std::to_chars.
std::string Printf6g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Append6g(double v) {
  std::string out;
  AppendDouble6g(v, &out);
  return out;
}

/// A seeded sweep over the doubles %.6g rendering is hard on: signed zero,
/// infinities, NaN, subnormals, every decade with sampled mantissas, the
/// decimal midpoints where six-digit rounding ties (and their neighbours
/// one ulp away), random values in [0, 1) at every scale, and random bit
/// patterns.
std::vector<double> SweepValues() {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,  -0.0, Limits::infinity(),
                                -Limits::infinity(), Limits::quiet_NaN(),
                                -Limits::quiet_NaN(), Limits::denorm_min(),
                                Limits::min(), Limits::max(), 1e-05, 0.0001,
                                999999.5, 123456.5, 1234567, 0.1, 1.0 / 3};
  Rng rng(6);
  char text[48];
  for (int e = -330; e <= 310; ++e) {
    for (int i = 0; i < 12; ++i) {
      // A sampled 1-3 digit mantissa, and a 7-digit midpoint d.ddddd5.
      std::snprintf(text, sizeof(text), "%de%d",
                    static_cast<int>(rng.NextInt(1, 999)), e);
      values.push_back(std::strtod(text, nullptr));
      std::snprintf(text, sizeof(text), "%d5e%d",
                    static_cast<int>(rng.NextInt(100000, 999999)), e - 6);
      const double mid = std::strtod(text, nullptr);
      values.push_back(mid);
      values.push_back(std::nextafter(mid, Limits::infinity()));
      values.push_back(std::nextafter(mid, -Limits::infinity()));
    }
  }
  for (int i = 0; i < 100000; ++i) {
    values.push_back(rng.NextDouble() * std::pow(10.0, rng.NextInt(-30, 30)));
    values.push_back(std::bit_cast<double>(rng.Next()));
  }
  const size_t n = values.size();
  for (size_t i = 0; i < n; ++i) values.push_back(-values[i]);
  return values;
}

TEST(DoubleFormatTest, SixDigitsMatchPrintfOverASeededSweep) {
  size_t mismatches = 0;
  for (double v : SweepValues()) {
    if (Append6g(v) != Printf6g(v) && ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << v << ": to_chars " << Append6g(v)
                    << " vs printf " << Printf6g(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(DoubleFormatTest, ExactKeepsSixDigitTextThatReadsBack) {
  EXPECT_EQ(ExactDoubleText(0.05), "0.05");
  EXPECT_EQ(ExactDoubleText(0.1), "0.1");
  EXPECT_EQ(ExactDoubleText(2.5), "2.5");
  EXPECT_EQ(ExactDoubleText(1e-05), "1e-05");
  EXPECT_EQ(ExactDoubleText(1e+06), "1e+06");
  EXPECT_EQ(ExactDoubleText(-0.0), "-0");
  EXPECT_EQ(ExactDoubleText(10), "10");
  // Past six digits: the shortest text that reads back.
  EXPECT_EQ(ExactDoubleText(1234567), "1234567");
  EXPECT_EQ(ExactDoubleText(1.0 / 3), "0.3333333333333333");
  EXPECT_EQ(ExactDoubleText(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(ExactDoubleText(std::nextafter(0.05, 1.0)),
            "0.05000000000000001");
}

TEST(DoubleFormatTest, ExactAlwaysParsesBackBitForBit) {
  size_t mismatches = 0;
  for (double v : SweepValues()) {
    if (std::isnan(v)) continue;
    const std::string text = ExactDoubleText(v);
    const double back = std::strtod(text.c_str(), nullptr);
    if (std::bit_cast<uint64_t>(back) != std::bit_cast<uint64_t>(v) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << std::hexfloat << v << " -> " << text;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace scube
