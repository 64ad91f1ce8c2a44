// Hostile CSV through the publish path: the three Fig. 3 documents
// (individual.csv, group.csv, individualGroup.csv) are mutated (quotes,
// separators, set literals, ids, dates, empty fields, truncation) and fed
// through CsvReader::ParseString -> etl::LoadInputsFromCsv ->
// pipeline::RunPipeline with tiny caps in every mode. Every input must end
// in OK or an error Status, accepted inputs must build the brute-force
// oracle's closed cells, and a printed tally must show the loaders' error
// paths firing. A failure prints `seed N`; the corpus comes from the CSV the
// csv, table, table-builder and integration tests use.

#include <gtest/gtest.h>

#include <cctype>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/random.h"
#include "cube/cube_view.h"
#include "etl/loaders.h"
#include "oracles/mining_oracle.h"
#include "scube/pipeline.h"

namespace scube {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;

// Three documents with the schemas they load under.
struct Fixture {
  std::string docs[3];  // individuals, groups, membership
  Schema individuals;
  Schema groups;
  graph::Date date;  // the pipeline's snapshot date
};

const std::vector<Fixture>& Corpus() {
  static const std::vector<Fixture> corpus = {
      // The integration test's two company communities.
      {{"id,gender,age_bin\n1,M,18-38\n2,M,39-46\n3,M,18-38\n4,M,39-46\n"
        "5,F,18-38\n6,F,39-46\n7,F,18-38\n8,F,39-46\n9,M,18-38\n10,F,18-38\n",
        "id,sector\n100,electricity\n101,transports\n102,education\n"
        "103,health\n104,trade\n",
        "individualID,groupID\n1,100\n1,101\n2,100\n2,101\n3,100\n4,101\n"
        "5,102\n5,103\n6,102\n6,103\n7,102\n8,103\n9,104\n10,104\n"},
       Schema({{"id", ColumnType::kInt64, AttributeKind::kId},
               {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
               {"age_bin", ColumnType::kCategorical,
                AttributeKind::kSegregation}}),
       Schema({{"id", ColumnType::kInt64, AttributeKind::kId},
               {"sector", ColumnType::kCategorical, AttributeKind::kContext}}),
       0},
      // Set-valued sectors and quoted names (csv_test), validity dates and
      // open intervals (table_builder_test), CRLF line ends.
      {{"id,gender,age\r\n1,F,33\r\n2,M,47\r\n3,F,30\r\n4,M,33\r\n5,F,47\r\n",
        "id,sector,name\n7,\"{electricity, transports}\",\"say \"\"hi\"\"\"\n"
        "8,{finance},\"with,comma\"\n9,\"{trade,finance}\",plain\n"
        "10,{},\"with\nnewline\"\n",
        "individualID,groupID,from,to\n1,7,2000,2010\n2,8,,\n3,7,,\n"
        "3,9,1999,2020\n4,9,,2008\n5,8,2001,\n1,9,2003,2007\n4,7,,\n"},
       Schema({{"id", ColumnType::kInt64, AttributeKind::kId},
               {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
               {"age", ColumnType::kCategorical, AttributeKind::kSegregation}}),
       Schema({{"id", ColumnType::kInt64, AttributeKind::kId},
               {"sector", ColumnType::kCategoricalSet, AttributeKind::kContext},
               {"name", ColumnType::kCategorical, AttributeKind::kIgnore}}),
       2005},
  };
  return corpus;
}

// Replaces a random run of at least `min_length` digits with `with`.
void ReplaceDigits(std::string* text, size_t min_length,
                   const std::string& with, Rng* rng) {
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t i = 0; i < text->size();) {
    size_t j = i;
    while (j < text->size() &&
           std::isdigit(static_cast<unsigned char>((*text)[j]))) {
      ++j;
    }
    if (j - i >= min_length && j > i) runs.emplace_back(i, j - i);
    i = j + 1;
  }
  if (runs.empty()) return;
  const auto [at, length] = runs[rng->NextBounded(runs.size())];
  text->replace(at, length, with);
}

// Byte offsets of every field start in `text` (after a separator or a line
// break, or at 0), quoting ignored: mutations need not respect it.
std::vector<size_t> FieldStarts(const std::string& text) {
  std::vector<size_t> starts = {0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == ',' || text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

size_t FieldEnd(const std::string& text, size_t start) {
  size_t end = start;
  while (end < text.size() && text[end] != ',' && text[end] != '\n' &&
         text[end] != '\r') {
    ++end;
  }
  return end;
}

/// One to three mutations of a document.
std::string MutateDocument(std::string text, Rng* rng) {
  static const char* const kIds[] = {
      "",  "0", "-1", "7", "100", "1e3", "x", " 1", "01", "+5",
      "9223372036854775807", "9223372036854775808", "-9223372036854775809"};
  static const char* const kDates[] = {"", "1999", "2005", "2010", "3000",
                                       "-5", "20x0", "2005.5"};
  static const char* const kSets[] = {
      "{}", "{ , }", "\"{a,b}\"", "{a", "a}", "\"{electricity, transports}\"",
      "\"{\"\"q\"\"}\"", "{{x}}", "\"{,,}\""};
  static const char* const kFields[] = {"\"", "\"\"", "\"a\"b", "a\"b",
                                        "\"unterminated", "\"x\"\"y\"",
                                        "\"a,b\"", "\"\n\"", "F", "M"};
  static const char kBytes[] = "\",;\n\r{}\t\x80 0";
  const int mutations = 1 + static_cast<int>(rng->NextBounded(3));
  for (int m = 0; m < mutations; ++m) {
    const std::vector<size_t> starts = FieldStarts(text);
    const size_t field = starts[rng->NextBounded(starts.size())];
    switch (rng->NextBounded(11)) {
      case 0:  // byte flip
        if (!text.empty()) {
          text[rng->NextBounded(text.size())] ^=
              static_cast<char>(1 + rng->NextBounded(255));
        }
        break;
      case 1:  // truncation
        text.resize(rng->NextBounded(text.size() + 1));
        break;
      case 2:  // a special byte inserted: quote, separator, brace, break
        text.insert(rng->NextBounded(text.size() + 1), 1,
                    kBytes[rng->NextBounded(sizeof(kBytes) - 1)]);
        break;
      case 3:  // a separator or line break deleted
        for (int tries = 0; tries < 8 && !text.empty(); ++tries) {
          const size_t at = rng->NextBounded(text.size());
          if (text[at] == ',' || text[at] == '\n') {
            text.erase(at, 1);
            break;
          }
        }
        break;
      case 4:  // an id (any digit run) replaced by an edge case
        ReplaceDigits(&text, 1, kIds[rng->NextBounded(std::size(kIds))], rng);
        break;
      case 5:  // a date (four digits or more) replaced
        ReplaceDigits(&text, 4, kDates[rng->NextBounded(std::size(kDates))],
                      rng);
        break;
      case 6:  // a field replaced by a set literal
        text.replace(field, FieldEnd(text, field) - field,
                     kSets[rng->NextBounded(std::size(kSets))]);
        break;
      case 7:  // a field replaced by quoting debris
        text.replace(field, FieldEnd(text, field) - field,
                     kFields[rng->NextBounded(std::size(kFields))]);
        break;
      case 8:  // a field emptied
        text.erase(field, FieldEnd(text, field) - field);
        break;
      case 9: {  // a line duplicated (duplicate ids, repeated edges)
        const size_t end = text.find('\n', field);
        const size_t begin = text.rfind('\n', field == 0 ? 0 : field - 1);
        const size_t from = begin == std::string::npos ? 0 : begin + 1;
        const size_t to = end == std::string::npos ? text.size() : end + 1;
        text.insert(to, text.substr(from, to - from));
        break;
      }
      case 10: {  // a line deleted (the header too: missing columns)
        const size_t end = text.find('\n', field);
        const size_t begin = text.rfind('\n', field == 0 ? 0 : field - 1);
        const size_t from = begin == std::string::npos ? 0 : begin + 1;
        text.erase(from, end == std::string::npos ? std::string::npos
                                                  : end + 1 - from);
        break;
      }
    }
  }
  return text;
}

/// The error paths of the CSV reader, the table loader and the input
/// loader, by a fragment only its message carries. Order matters where one
/// fragment contains another.
const std::vector<std::pair<const char*, const char*>>& LoaderErrorPaths() {
  static const std::vector<std::pair<const char*, const char*>> paths = {
      {"unterminated quoted field", "csv: unterminated quote"},
      {"CSV document is empty", "csv: empty document"},
      {"fields, expected", "csv: field count"},
      {"CSV is missing schema attribute", "table: missing column"},
      {"empty integer", "value: empty integer"},
      {"trailing characters in integer", "value: malformed integer"},
      {"integer out of range", "value: integer out of range"},
      {"duplicate entity id", "load: duplicate id"},
      {"membership CSV must have columns", "load: membership columns"},
      {"references unknown individual", "load: unknown individual"},
      {"references unknown group", "load: unknown group"},
      {"empty validity interval", "load: empty validity interval"},
  };
  return paths;
}

std::string Classify(const Status& status) {
  for (const auto& [fragment, path] : LoaderErrorPaths()) {
    if (status.message().find(fragment) != std::string::npos) return path;
  }
  return "";
}

pipeline::PipelineConfig TinyConfig(graph::Date date, fpm::MineMode mode,
                                    Rng* rng) {
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupClusters;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 1.0 + static_cast<double>(rng->NextBounded(2));
  config.date = date;
  config.cube.mode = mode;
  config.cube.min_support = 1 + rng->NextBounded(2);
  config.cube.max_sa_items = 1 + static_cast<uint32_t>(rng->NextBounded(2));
  config.cube.max_ca_items = 1;
  return config;
}

TEST(CsvFuzzTest, MutatedInputsEndInAStatusAndBuildTheOracleCells) {
  constexpr uint64_t kSeeds = 2000;
  constexpr int kRounds = 8;
  std::map<std::string, size_t> tally;
  for (const auto& [fragment, path] : LoaderErrorPaths()) tally[path] = 0;
  std::map<std::string, size_t> other_errors;  // by stage and message
  size_t loaded = 0, built = 0, compared = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    for (int round = 0; round < kRounds; ++round) {
      const Fixture& fixture = Corpus()[rng.NextBounded(Corpus().size())];
      std::string docs[3] = {fixture.docs[0], fixture.docs[1],
                             fixture.docs[2]};
      const size_t target = rng.NextBounded(3);
      docs[target] = MutateDocument(docs[target], &rng);

      auto load = [&]() -> Result<etl::ScubeInputs> {
        CsvReader reader;
        std::vector<CsvDocument> parsed;
        for (const std::string& doc : docs) {
          auto result = reader.ParseString(doc);
          if (!result.ok()) return result.status();
          parsed.push_back(std::move(result).value());
        }
        return etl::LoadInputsFromCsv(parsed[0], fixture.individuals,
                                      parsed[1], fixture.groups, parsed[2]);
      };
      Result<etl::ScubeInputs> inputs = load();
      if (!inputs.ok()) {
        ASSERT_FALSE(inputs.status().message().empty());
        const std::string path = Classify(inputs.status());
        if (path.empty()) {
          ++other_errors["load: " + inputs.status().ToString()];
        } else {
          ++tally[path];
        }
        continue;
      }
      ++loaded;

      for (fpm::MineMode mode : {fpm::MineMode::kAll, fpm::MineMode::kClosed,
                                 fpm::MineMode::kMaximal}) {
        const pipeline::PipelineConfig config =
            TinyConfig(fixture.date, mode, &rng);
        auto result = pipeline::RunPipeline(*inputs, config);
        if (!result.ok()) {
          ASSERT_FALSE(result.status().message().empty());
          ++other_errors["pipeline: " + result.status().ToString()];
          continue;
        }
        ++built;
        if (mode != fpm::MineMode::kClosed) continue;
        auto encoded = relational::EncodeForAnalysis(result->final_table);
        ASSERT_TRUE(encoded.ok()) << encoded.status();
        const auto expected = oracle::CubeCells(*encoded, config.cube);
        const cube::CubeView view = std::move(result->cube).Seal();
        ASSERT_EQ(view.NumCells(), expected.size());
        for (const cube::CubeCell& cell : view.Cells()) {
          auto it = expected.find(cell.coords);
          ASSERT_NE(it, expected.end()) << view.LabelOf(cell.coords);
          EXPECT_EQ(cell.context_size, it->second.context_size);
          EXPECT_EQ(cell.minority_size, it->second.minority_size);
        }
        ++compared;
      }
    }
  }
  std::cout << "loaded " << loaded << " of " << kSeeds * kRounds
            << " mutated inputs; " << built << " pipeline runs built a cube, "
            << compared << " closed cubes matched the oracle\n";
  for (const auto& [path, count] : tally) {
    std::cout << "  " << path << ": " << count << "\n";
    EXPECT_GT(count, 0u) << "error path never fired: " << path;
  }
  for (const auto& [message, count] : other_errors) {
    std::cout << "  (other) " << message << ": " << count << "\n";
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace scube
