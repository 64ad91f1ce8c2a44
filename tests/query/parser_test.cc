#include "query/parser.h"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "query/ast.h"

namespace scube {
namespace query {
namespace {

Query MustParse(const std::string& text) {
  auto q = Parse(text);
  EXPECT_TRUE(q.ok()) << text << " -> " << q.status();
  return q.ok() ? std::move(q).value() : Query{};
}

TEST(ParserTest, TopKWithWhere) {
  Query q = MustParse("TOPK 5 BY dissimilarity WHERE T >= 30 AND M >= 5");
  EXPECT_EQ(q.verb, Verb::kTopK);
  EXPECT_EQ(q.k, 5u);
  EXPECT_EQ(q.by, indexes::IndexKind::kDissimilarity);
  ASSERT_TRUE(q.min_t.has_value());
  EXPECT_EQ(*q.min_t, 30u);
  ASSERT_TRUE(q.min_m.has_value());
  EXPECT_EQ(*q.min_m, 5u);
}

TEST(ParserTest, SliceBothAxes) {
  Query q = MustParse("SLICE sa=sex=F & age=young | ca=region=north");
  EXPECT_EQ(q.verb, Verb::kSlice);
  ASSERT_EQ(q.sa.size(), 2u);
  // Constraints are normalised into sorted order.
  EXPECT_EQ(q.sa[0], (AttrValue{"age", "young"}));
  EXPECT_EQ(q.sa[1], (AttrValue{"sex", "F"}));
  ASSERT_EQ(q.ca.size(), 1u);
  EXPECT_EQ(q.ca[0], (AttrValue{"region", "north"}));
}

TEST(ParserTest, KeywordsCaseInsensitiveValuesNot) {
  Query q = MustParse("topk 3 by GINI where t >= 10");
  EXPECT_EQ(q.verb, Verb::kTopK);
  EXPECT_EQ(q.by, indexes::IndexKind::kGini);
  Query v = MustParse("slice sa=sex=F");
  EXPECT_EQ(v.sa[0].value, "F");  // value case preserved
}

TEST(ParserTest, QuotedValuesAndClauses) {
  Query q = MustParse(
      "DICE ca=sector='real estate' FROM italy_2012 ORDER BY T ASC LIMIT 7");
  EXPECT_EQ(q.verb, Verb::kDice);
  EXPECT_EQ(q.ca[0].value, "real estate");
  EXPECT_EQ(q.cube, "italy_2012");
  ASSERT_TRUE(q.order.has_value());
  EXPECT_EQ(q.order->key, OrderBy::Key::kContextSize);
  EXPECT_FALSE(q.order->descending);
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 7u);
}

TEST(ParserTest, ExplorerVerbsWithThresholds) {
  Query s = MustParse("SURPRISES BY information MINDELTA 0.25");
  EXPECT_EQ(s.verb, Verb::kSurprises);
  EXPECT_EQ(s.by, indexes::IndexKind::kInformation);
  EXPECT_DOUBLE_EQ(s.threshold, 0.25);

  Query r = MustParse("REVERSALS MINGAP 0.4");
  EXPECT_EQ(r.verb, Verb::kReversals);
  EXPECT_DOUBLE_EQ(r.threshold, 0.4);
  // BY defaults to dissimilarity.
  EXPECT_EQ(r.by, indexes::IndexKind::kDissimilarity);
}

TEST(ParserTest, FiniteThresholdsOfAnySignParse) {
  EXPECT_EQ(MustParse("REVERSALS MINGAP -0.5").threshold, -0.5);
  EXPECT_EQ(MustParse("SURPRISES MINDELTA -1e300").threshold, -1e300);
  EXPECT_EQ(MustParse("SURPRISES MINDELTA 0x1p-3").threshold, 0.125);
  // Underflow reads as zero, a finite threshold.
  EXPECT_EQ(MustParse("SURPRISES MINDELTA 1e-999").threshold, 0.0);
  EXPECT_EQ(MustParse("TOPK 4294967295 BY gini").k, 4294967295u);
}

TEST(ParserTest, RollupAndDrilldownCoordsOptional) {
  Query root = MustParse("DRILLDOWN");
  EXPECT_EQ(root.verb, Verb::kDrilldown);
  EXPECT_TRUE(root.sa.empty());
  EXPECT_TRUE(root.ca.empty());

  Query up = MustParse("ROLLUP sa=sex=F | ca=region=north");
  EXPECT_EQ(up.verb, Verb::kRollup);
  EXPECT_EQ(up.sa.size(), 1u);
  EXPECT_EQ(up.ca.size(), 1u);
}

TEST(ParserTest, FromVersionPin) {
  Query q = MustParse("TOPK 5 BY gini FROM italy@3");
  EXPECT_EQ(q.cube, "italy");
  ASSERT_TRUE(q.cube_version.has_value());
  EXPECT_EQ(*q.cube_version, 3u);
  EXPECT_EQ(Canonical(q), "TOPK 5 BY gini FROM italy@3");

  // Unpinned FROM leaves the version unset (latest).
  Query latest = MustParse("TOPK 5 BY gini FROM italy");
  EXPECT_FALSE(latest.cube_version.has_value());
  EXPECT_FALSE(latest == q);
}

TEST(ParserTest, LimitOffsetPagination) {
  Query q = MustParse("DICE sa=sex=F LIMIT 10 OFFSET 20");
  ASSERT_TRUE(q.limit.has_value());
  EXPECT_EQ(*q.limit, 10u);
  ASSERT_TRUE(q.offset.has_value());
  EXPECT_EQ(*q.offset, 20u);
  EXPECT_EQ(Canonical(q), "DICE sa=sex=F LIMIT 10 OFFSET 20");

  // OFFSET stands alone too (skip a prefix, unbounded tail).
  Query skip = MustParse("SLICE sa=sex=F OFFSET 5");
  EXPECT_FALSE(skip.limit.has_value());
  ASSERT_TRUE(skip.offset.has_value());
  EXPECT_EQ(*skip.offset, 5u);

  // An unset OFFSET is not the same query as OFFSET 0 (distinct canonical
  // forms), and a bare LIMIT parses as before.
  Query plain = MustParse("DICE sa=sex=F LIMIT 10");
  EXPECT_FALSE(plain.offset.has_value());
  EXPECT_FALSE(plain == q);
}

TEST(ParserTest, DuplicateConstraintsDeduplicated) {
  Query q = MustParse("DICE sa=sex=F & sex=F");
  EXPECT_EQ(q.sa.size(), 1u);
}

TEST(ParserTest, CanonicalRoundTrip) {
  const char* inputs[] = {
      "TOPK 5 BY dissimilarity WHERE T >= 30",
      "topk 10 by atkinson where m >= 5 and t >= 100 order by gini asc",
      "SLICE sa=sex=F & age=young | ca=region=north",
      "slice ca=region=south",
      "DICE sa=age=young LIMIT 3",
      "DICE sa=age=young LIMIT 3 OFFSET 6",
      "SLICE sa=sex=F OFFSET 2",
      "ROLLUP sa=sex=F | ca=region=north FROM cube_b",
      "DRILLDOWN",
      "SURPRISES BY isolation MINDELTA 0.2 ORDER BY M DESC",
      "REVERSALS MINGAP 0.15 FROM sectors LIMIT 4",
      "DICE ca=sector='real estate'",
      "TOPK 3 BY gini FROM italy_2012@2",
  };
  for (const char* text : inputs) {
    Query first = MustParse(text);
    std::string canonical = Canonical(first);
    Query second = MustParse(canonical);
    EXPECT_TRUE(first == second) << text << " vs " << canonical;
    EXPECT_EQ(canonical, Canonical(second)) << text;
  }
}

TEST(ParserTest, CanonicalThresholdsParseBackBitExact) {
  // The canonical text keys the result cache, is what the router sends
  // each shard and feeds the cursor hash, so a threshold must survive it
  // bit for bit: two thresholds that round to one 6-digit text would
  // otherwise share one cached answer.
  std::vector<double> thresholds = {0.0, -0.0, 0.05, 0.1, 0.15, 1e-05,
                                    std::numeric_limits<double>::denorm_min(),
                                    std::numeric_limits<double>::max()};
  Rng rng(20260517);
  for (int i = 0; i < 2000; ++i) {
    double v = rng.NextDouble() * std::pow(10.0, rng.NextInt(-9, 9));
    if (rng.NextBool(0.25)) v = -v;
    thresholds.push_back(v);
    thresholds.push_back(std::nextafter(v, 1.0));
  }
  for (double threshold : thresholds) {
    for (Verb verb : {Verb::kSurprises, Verb::kReversals}) {
      Query q;
      q.verb = verb;
      q.threshold = threshold;
      std::string canonical = Canonical(q);
      Query back = MustParse(canonical);
      EXPECT_EQ(std::bit_cast<uint64_t>(back.threshold),
                std::bit_cast<uint64_t>(threshold))
          << canonical;
    }
  }
  // A threshold whose 6-digit text already reads back keeps that text.
  EXPECT_EQ(Canonical(MustParse("SURPRISES MINDELTA 0.05")),
            "SURPRISES BY dissimilarity MINDELTA 0.05");
}

TEST(ParserTest, CanonicalQuotesAValueHoldingAQuote) {
  // A value lexed from "..." may hold a ' and one from '...' a ", so the
  // canonical text quotes each value with the other character.
  for (const char* text : {"DICE ca=sector=\"it's\"",
                           "DICE ca=sector='say \"hi\"'"}) {
    Query q = MustParse(text);
    Query back = MustParse(Canonical(q));
    EXPECT_TRUE(back == q) << text << " -> " << Canonical(q);
    EXPECT_EQ(Canonical(back), Canonical(q)) << text;
  }
  EXPECT_EQ(Canonical(MustParse("DICE ca=sector=\"it's\"")),
            "DICE ca=sector=\"it's\"");
  EXPECT_EQ(Canonical(MustParse("DICE ca=sector=\"real estate\"")),
            "DICE ca=sector='real estate'");
}

TEST(ParserTest, CanonicalNormalisesEquivalentSpellings) {
  Query a = MustParse("topk 5 by gini where t >= 30");
  Query b = MustParse("TOPK 5 BY gini WHERE T >= 30");
  EXPECT_EQ(Canonical(a), Canonical(b));

  // Coordinate order does not matter.
  Query c = MustParse("DICE sa=sex=F & age=young");
  Query d = MustParse("DICE sa=age=young & sex=F");
  EXPECT_EQ(Canonical(c), Canonical(d));
}

struct ErrorCase {
  const char* text;
  const char* expect_substring;
};

TEST(ParserTest, ErrorsCarryColumnAndContext) {
  const ErrorCase cases[] = {
      {"FROBNICATE sa=sex=F", "unknown verb"},
      {"", "expected a query verb"},
      {"SLICE", "expected coordinates"},
      {"SLICE sex=F", "expected 'sa=' or 'ca='"},
      {"SLICE sa=sex", "expected '=' after attribute 'sex'"},
      {"TOPK BY gini", "expected an integer for TOPK count"},
      {"TOPK 5 gini", "expected BY"},
      {"TOPK 5 BY fairness", "unknown index 'fairness'"},
      {"TOPK 0 BY gini", "must be positive"},
      {"TOPK 5 BY gini WHERE T > 30", "only '>=' comparisons"},
      {"TOPK 5 BY gini WHERE T >= -1", "non-negative integer"},
      {"TOPK -5 BY gini", "non-negative integer"},
      {"TOPK 5 BY gini LIMIT -1", "non-negative integer"},
      {"TOPK 5 BY gini LIMIT 0", "LIMIT must be positive"},
      {"TOPK 5 BY gini OFFSET -2", "non-negative integer"},
      {"TOPK 5 BY gini OFFSET", "expected an integer for OFFSET"},
      {"TOPK 5 BY gini WHERE units >= 3", "WHERE supports T >="},
      {"TOPK 5 BY gini ORDER BY size", "unknown ORDER BY key"},
      {"DICE ca=sector='real estate", "unterminated quoted value"},
      {"DRILLDOWN sa=sex=F garbage", "unexpected trailing input"},
      {"SLICE sa=sex=F ^", "unexpected character"},
      {"TOPK 5 BY gini FROM italy@", "expected an integer for FROM version"},
      {"TOPK 5 BY gini FROM italy@v2", "expected an integer for FROM version"},
      {"TOPK 5 BY gini FROM italy@0", "versions start at 1"},
      {"TOPK 4294967296 BY gini", "TOPK count must be at most 4294967295"},
      {"SURPRISES MINDELTA", "expected a number for MINDELTA"},
      {"REVERSALS MINGAP 0.1.2", "expected a number for MINGAP"},
      // strtod reads these; none is a threshold.
      {"REVERSALS MINGAP nan", "MINGAP must be a finite number, got 'nan'"},
      {"SURPRISES MINDELTA nan", "MINDELTA must be a finite number"},
      {"SURPRISES MINDELTA NAN", "MINDELTA must be a finite number"},
      {"REVERSALS MINGAP inf", "MINGAP must be a finite number"},
      {"REVERSALS MINGAP -inf", "MINGAP must be a finite number"},
      {"SURPRISES MINDELTA infinity", "MINDELTA must be a finite number"},
      {"SURPRISES MINDELTA 1e999", "MINDELTA must be a finite number"},
      {"REVERSALS MINGAP -1e999", "MINGAP must be a finite number"},
  };
  for (const ErrorCase& c : cases) {
    auto q = Parse(c.text);
    ASSERT_FALSE(q.ok()) << c.text;
    EXPECT_EQ(q.status().code(), StatusCode::kParseError) << c.text;
    EXPECT_NE(q.status().message().find("col "), std::string::npos)
        << c.text << " -> " << q.status().message();
    EXPECT_NE(q.status().message().find(c.expect_substring),
              std::string::npos)
        << c.text << " -> " << q.status().message();
  }
}

// --- fuzzing ---------------------------------------------------------------

/// Statements the parser, executor and streaming tests already use.
const std::vector<std::string>& FuzzCorpus() {
  static const std::vector<std::string> corpus = {
      "TOPK 5 BY dissimilarity WHERE T >= 30 AND M >= 5",
      "topk 10 by atkinson where m >= 5 and t >= 100 order by gini asc",
      "SLICE sa=sex=F & age=young | ca=region=north",
      "slice ca=region=south",
      "DICE sa=age=young LIMIT 3 OFFSET 6",
      "SLICE sa=sex=F OFFSET 2",
      "ROLLUP sa=sex=F | ca=region=north FROM cube_b",
      "DRILLDOWN",
      "SURPRISES BY isolation MINDELTA 0.2 ORDER BY M DESC",
      "SURPRISES BY dissimilarity MINDELTA 0.05 WHERE T >= 1 AND M >= 1",
      "REVERSALS MINGAP 0.15 FROM sectors LIMIT 4",
      "REVERSALS BY gini MINGAP 0.05 LIMIT 10",
      "DICE ca=sector='real estate' FROM italy_2012 ORDER BY T ASC LIMIT 7",
      "TOPK 3 BY gini FROM italy_2012@2",
      "DICE sa=sex=F WHERE T >= 50 AND M >= 20",
      "DICE sa=sex=F ORDER BY dissimilarity ASC",
      "TOPK 5 BY gini WHERE T >= 1 AND M >= 1 ORDER BY T DESC",
  };
  return corpus;
}

/// Words and symbols a mutation may splice in: keywords, index names,
/// numbers at and past every bound the parser checks, thresholds strtod
/// reads as non-finite, and quoting edge cases.
const std::vector<std::string>& FuzzDictionary() {
  static const std::vector<std::string> words = {
      "SLICE", "DICE", "ROLLUP", "DRILLDOWN", "TOPK", "SURPRISES",
      "REVERSALS", "FROBNICATE", "FROM", "WHERE", "ORDER", "BY", "LIMIT",
      "OFFSET", "AND", "ASC", "DESC", "MINDELTA", "MINGAP", "T", "M",
      "units", "gini", "dissimilarity", "fairness", ">=", ">", "=", "&",
      "|", "@", "sa=", "ca=", "sa=sex=F", "ca=region=north", "0", "1", "-1",
      "+5", "4294967295", "4294967296", "18446744073709551615",
      "18446744073709551616", "0.5", "-0.5", "-0", "1e-999", "1e999",
      "-1e999", "nan", "inf", "-inf", "infinity", "0x1p-3", "1e+20", "x@0",
      "'real estate'", "''", "\"it's\"", "'say \"hi\"'", "'open",
      "ca=sector=\"it's\"", "sa=sex='say \"hi\"'",
  };
  return words;
}

std::vector<std::string> SplitWords(const std::string& text) {
  std::vector<std::string> words;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(' ', start);
    if (end == std::string::npos) end = text.size();
    words.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return words;
}

std::string JoinWords(const std::vector<std::string>& words) {
  std::string out;
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) out += ' ';
    out += words[i];
  }
  return out;
}

/// One to three mutations of a statement: by byte, by word, by number or
/// by coordinate value.
std::string MutateStatement(std::string text, Rng* rng) {
  static const char kBytes[] = "'\"=&|@><^\t\n\x80(),;*";
  static const char* const kNumbers[] = {
      "0", "1", "-1", "-0", "4294967295", "4294967296",
      "18446744073709551616", "1e999", "1e-999", "nan", "inf", "0x1p-3"};
  static const char* const kValues[] = {"\"it's\"", "'say \"hi\"'",
                                        "'a b'", "''", "F"};
  const std::vector<std::string>& dict = FuzzDictionary();
  const int mutations = 1 + static_cast<int>(rng->NextBounded(3));
  for (int m = 0; m < mutations; ++m) {
    std::vector<std::string> words = SplitWords(text);
    const size_t w = rng->NextBounded(words.size());
    switch (rng->NextBounded(10)) {
      case 0:  // byte flip
        if (!text.empty()) {
          text[rng->NextBounded(text.size())] ^=
              static_cast<char>(1 + rng->NextBounded(255));
        }
        break;
      case 1:  // truncation
        text.resize(rng->NextBounded(text.size() + 1));
        break;
      case 2:  // a few bytes deleted
        if (!text.empty()) {
          text.erase(rng->NextBounded(text.size()), 1 + rng->NextBounded(3));
        }
        break;
      case 3:  // a special byte inserted
        text.insert(rng->NextBounded(text.size() + 1), 1,
                    kBytes[rng->NextBounded(sizeof(kBytes) - 1)]);
        break;
      case 4:  // a word dropped
        words.erase(words.begin() + static_cast<std::ptrdiff_t>(w));
        text = JoinWords(words);
        break;
      case 5:  // two words swapped
        std::swap(words[w], words[rng->NextBounded(words.size())]);
        text = JoinWords(words);
        break;
      case 6:  // a word replaced from the dictionary
        words[w] = dict[rng->NextBounded(dict.size())];
        text = JoinWords(words);
        break;
      case 7:  // a dictionary word inserted
        words.insert(words.begin() + static_cast<std::ptrdiff_t>(w),
                     dict[rng->NextBounded(dict.size())]);
        text = JoinWords(words);
        break;
      case 8: {  // a run of digits replaced by an edge-case number
        std::vector<std::pair<size_t, size_t>> runs;
        for (size_t i = 0; i < text.size();) {
          size_t j = i;
          while (j < text.size() && (std::isdigit(static_cast<unsigned char>(
                                         text[j])) || text[j] == '.')) {
            ++j;
          }
          if (j > i) runs.emplace_back(i, j - i);
          i = j + 1;
        }
        if (runs.empty()) break;
        const auto [at, length] = runs[rng->NextBounded(runs.size())];
        text.replace(at, length,
                     kNumbers[rng->NextBounded(std::size(kNumbers))]);
        break;
      }
      case 9: {  // a coordinate value replaced: the text after its last '='
        const size_t eq = words[w].rfind('=');
        if (eq == std::string::npos || eq + 1 == words[w].size()) break;
        words[w] = words[w].substr(0, eq + 1) +
                   kValues[rng->NextBounded(std::size(kValues))];
        text = JoinWords(words);
        break;
      }
    }
  }
  return text;
}

/// Every ParseError the lexer and parser can raise, by a fragment only its
/// message carries. Order matters where one fragment contains another.
const std::vector<std::pair<const char*, const char*>>& ParseErrorPaths() {
  static const std::vector<std::pair<const char*, const char*>> paths = {
      {"unterminated quoted value", "lex: unterminated quote"},
      {"unexpected character", "lex: unexpected character"},
      {"expected a query verb", "verb: missing"},
      {"unknown verb", "verb: unknown"},
      {"TOPK count must be positive", "TOPK: zero count"},
      {"TOPK count must be at most", "TOPK: count past 32 bits"},
      {"expected BY <index> after TOPK count", "TOPK: no BY"},
      {"expected an index name", "index: missing"},
      {"unknown index", "index: unknown"},
      {"expected a non-negative integer", "integer: signed"},
      {"expected an integer for", "integer: missing or malformed"},
      {"must be a finite number", "threshold: not finite"},
      {"expected a number for", "threshold: missing or malformed"},
      {"expected a cube name after FROM", "FROM: no name"},
      {"cube versions start at 1", "FROM: version 0"},
      {"expected BY after ORDER", "ORDER: no BY"},
      {"expected an ORDER BY key", "ORDER: no key"},
      {"unknown ORDER BY key", "ORDER: unknown key"},
      {"LIMIT must be positive", "LIMIT: zero"},
      {"unexpected trailing input", "trailing input"},
      {"expected coordinates", "coords: missing"},
      {"expected 'sa=' or 'ca='", "coords: no axis"},
      {"expected '=' after attribute", "coords: no '=' after attribute"},
      {"expected '=' after '", "coords: no '=' after axis"},
      {"expected an attribute name", "coords: no attribute"},
      {"expected a value for attribute", "coords: no value"},
      {"WHERE supports T >=", "WHERE: unknown field"},
      {"only '>=' comparisons", "WHERE: operator"},
  };
  return paths;
}

// Hostile SCubeQL text: the router parses what clients send and ships
// Canonical() text to the shards, so an accepted statement's canonical
// form must parse back to itself. A failure prints `seed N`; the run ends
// with a tally of the error paths taken, each of which must fire.
TEST(ParserFuzzTest, MutatedStatementsFailCleanlyOrRoundTripCanonically) {
  std::map<std::string, size_t> tally;
  for (const auto& [fragment, path] : ParseErrorPaths()) tally[path] = 0;
  size_t accepted = 0;
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    for (int round = 0; round < 8; ++round) {
      const std::vector<std::string>& corpus = FuzzCorpus();
      const std::string text =
          MutateStatement(corpus[rng.NextBounded(corpus.size())], &rng);
      auto parsed = Parse(text);
      if (!parsed.ok()) {
        ASSERT_EQ(parsed.status().code(), StatusCode::kParseError) << text;
        const std::string& message = parsed.status().message();
        bool known = false;
        for (const auto& [fragment, path] : ParseErrorPaths()) {
          if (message.find(fragment) != std::string::npos) {
            ++tally[path];
            known = true;
            break;
          }
        }
        EXPECT_TRUE(known) << text << " -> " << message;
        continue;
      }
      ++accepted;
      const std::string canonical = Canonical(*parsed);
      auto again = Parse(canonical);
      EXPECT_TRUE(again.ok()) << text << " -> " << canonical << " -> "
                              << again.status();
      if (!again.ok()) continue;
      EXPECT_EQ(Canonical(*again), canonical) << text;
      EXPECT_TRUE(*again == *parsed) << text << " -> " << canonical;
    }
  }
  std::cout << "accepted " << accepted << " of 16000 mutated statements\n";
  for (const auto& [path, count] : tally) {
    std::cout << "  " << path << ": " << count << "\n";
    EXPECT_GT(count, 0u) << "error path never fired: " << path;
  }
}

}  // namespace
}  // namespace query
}  // namespace scube
