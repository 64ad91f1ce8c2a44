#include "etl/table_builder.h"

#include <gtest/gtest.h>

#include <string>

#include "common/hashing.h"
#include "datagen/scenarios.h"
#include "etl/loaders.h"
#include "relational/transactions.h"
#include "scube/pipeline.h"

namespace scube {
namespace etl {
namespace {

using relational::AttributeKind;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

ScubeInputs BoardInputs() {
  Schema ind_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"residence", ColumnType::kCategorical, AttributeKind::kContext},
  });
  Table individuals(ind_schema);
  EXPECT_TRUE(individuals.AppendRowFromStrings({"10", "F", "north"}).ok());
  EXPECT_TRUE(individuals.AppendRowFromStrings({"11", "M", "north"}).ok());
  EXPECT_TRUE(individuals.AppendRowFromStrings({"12", "F", "south"}).ok());

  Schema grp_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"sector", ColumnType::kCategorical, AttributeKind::kContext},
  });
  Table groups(grp_schema);
  EXPECT_TRUE(groups.AppendRowFromStrings({"100", "electricity"}).ok());
  EXPECT_TRUE(groups.AppendRowFromStrings({"101", "transports"}).ok());
  EXPECT_TRUE(groups.AppendRowFromStrings({"102", "education"}).ok());

  graph::BipartiteGraph membership(3, 3);
  // Director 0 on companies 0 and 1 (same unit below): sector set union.
  EXPECT_TRUE(membership.AddMembership(0, 0).ok());
  EXPECT_TRUE(membership.AddMembership(0, 1).ok());
  EXPECT_TRUE(membership.AddMembership(1, 1).ok());
  EXPECT_TRUE(membership.AddMembership(2, 2).ok());
  return ScubeInputs(std::move(individuals), std::move(groups),
                     std::move(membership));
}

graph::Clustering TwoUnits() {
  // Companies 0,1 -> unit 0; company 2 -> unit 1.
  return graph::NormalizeLabels({0, 0, 1});
}

TEST(TableBuilderTest, JoinProducesRowPerIndividualUnit) {
  auto table = BuildFinalTable(BoardInputs(), TwoUnits(),
                               TableBuilderOptions{});
  ASSERT_TRUE(table.ok()) << table.status();
  // Director 0 sits on two boards of the SAME unit -> one row.
  EXPECT_EQ(table->NumRows(), 3u);

  const Schema& schema = table->schema();
  EXPECT_EQ(schema.IndexOf("gender"), 0);
  EXPECT_EQ(schema.IndexOf("residence"), 1);
  EXPECT_EQ(schema.IndexOf("sector"), 2);
  EXPECT_EQ(schema.IndexOf("unitID"), 3);
  EXPECT_EQ(schema.attribute(2).type, ColumnType::kCategoricalSet);
  EXPECT_EQ(schema.attribute(3).kind, AttributeKind::kUnit);
}

TEST(TableBuilderTest, GroupAttributesUnionAcrossBoards) {
  auto table = BuildFinalTable(BoardInputs(), TwoUnits(),
                               TableBuilderOptions{});
  ASSERT_TRUE(table.ok());
  // Row for director 0 (first row: pairs ordered by (individual, unit)).
  EXPECT_EQ(table->CategoricalValue(0, 0), "F");
  auto sectors = table->SetValues(0, 2);
  EXPECT_EQ(sectors.size(), 2u);  // electricity + transports (Fig. 3)
  EXPECT_NE(std::find(sectors.begin(), sectors.end(), "electricity"),
            sectors.end());
  EXPECT_NE(std::find(sectors.begin(), sectors.end(), "transports"),
            sectors.end());

  // Director 2's unit only has education.
  EXPECT_EQ(table->SetValues(2, 2), (std::vector<std::string>{"education"}));
}

TEST(TableBuilderTest, DirectorSpanningUnitsGetsTwoRows) {
  ScubeInputs inputs = BoardInputs();
  // Add director 1 to company 2 (unit 1): now rows for units 0 and 1.
  ASSERT_TRUE(inputs.membership.AddMembership(1, 2).ok());
  auto table = BuildFinalTable(inputs, TwoUnits(), TableBuilderOptions{});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 4u);
}

TEST(TableBuilderTest, SnapshotDateFiltersRows) {
  Schema ind_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
  });
  Table individuals(ind_schema);
  ASSERT_TRUE(individuals.AppendRowFromStrings({"0", "F"}).ok());
  Schema grp_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"sector", ColumnType::kCategorical, AttributeKind::kContext},
  });
  Table groups(grp_schema);
  ASSERT_TRUE(groups.AppendRowFromStrings({"0", "trade"}).ok());
  graph::BipartiteGraph membership(1, 1);
  ASSERT_TRUE(membership.AddMembership(0, 0, 2000, 2005).ok());
  ScubeInputs inputs(std::move(individuals), std::move(groups),
                     std::move(membership));
  graph::Clustering one = graph::NormalizeLabels({0});

  TableBuilderOptions at_2003;
  at_2003.date = 2003;
  auto t1 = BuildFinalTable(inputs, one, at_2003);
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->NumRows(), 1u);

  TableBuilderOptions at_2010;
  at_2010.date = 2010;
  auto t2 = BuildFinalTable(inputs, one, at_2010);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->NumRows(), 0u);
}

TEST(TableBuilderTest, ClusteringSizeMismatchRejected) {
  auto bad = BuildFinalTable(BoardInputs(), graph::NormalizeLabels({0}),
                             TableBuilderOptions{});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableBuilderTest, UnitLabelOutsideTheClusteringRejected) {
  graph::Clustering labels = graph::NormalizeLabels({0, 0, 1});
  labels.labels[2] = 2;  // num_clusters is 2
  auto bad = BuildFinalTable(BoardInputs(), labels, TableBuilderOptions{});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("group 2 has unit 2"),
            std::string::npos)
      << bad.status();
}

TEST(InputsTest, GroupsWithSaRejected) {
  Schema ind_schema({{"id", ColumnType::kInt64, AttributeKind::kId}});
  Schema grp_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
  });
  ScubeInputs inputs(Table(ind_schema), Table(grp_schema),
                     graph::BipartiteGraph(0, 0));
  EXPECT_EQ(inputs.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(LoadersTest, EndToEndCsvLoading) {
  CsvReader reader;
  auto ind_doc = reader.ParseString(
      "id,gender\n1,F\n2,M\n3,F\n");
  auto grp_doc = reader.ParseString("id,sector\n7,trade\n8,finance\n");
  auto mem_doc = reader.ParseString(
      "individualID,groupID,from,to\n1,7,2000,2010\n2,8,,\n3,7,,\n");
  ASSERT_TRUE(ind_doc.ok());
  ASSERT_TRUE(grp_doc.ok());
  ASSERT_TRUE(mem_doc.ok());

  Schema ind_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
  });
  Schema grp_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"sector", ColumnType::kCategorical, AttributeKind::kContext},
  });
  auto inputs = LoadInputsFromCsv(ind_doc.value(), ind_schema,
                                  grp_doc.value(), grp_schema,
                                  mem_doc.value());
  ASSERT_TRUE(inputs.ok()) << inputs.status();
  EXPECT_EQ(inputs->individuals.NumRows(), 3u);
  EXPECT_EQ(inputs->groups.NumRows(), 2u);
  EXPECT_EQ(inputs->membership.NumMemberships(), 3u);
  // External id 1 -> row 0; external id 7 -> row 0.
  const auto& m0 = inputs->membership.memberships()[0];
  EXPECT_EQ(m0.individual, 0u);
  EXPECT_EQ(m0.group, 0u);
  EXPECT_EQ(m0.valid_from, 2000);
  EXPECT_EQ(m0.valid_to, 2010);
  // Blank validity fields mean forever.
  EXPECT_EQ(inputs->membership.memberships()[1].valid_from, graph::kDateMin);
}

TEST(LoadersTest, UnknownIdRejected) {
  CsvReader reader;
  auto ind_doc = reader.ParseString("id,gender\n1,F\n");
  auto grp_doc = reader.ParseString("id,sector\n7,trade\n");
  auto mem_doc = reader.ParseString("individualID,groupID\n99,7\n");
  Schema ind_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
  });
  Schema grp_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"sector", ColumnType::kCategorical, AttributeKind::kContext},
  });
  auto inputs = LoadInputsFromCsv(ind_doc.value(), ind_schema,
                                  grp_doc.value(), grp_schema,
                                  mem_doc.value());
  EXPECT_EQ(inputs.status().code(), StatusCode::kNotFound);
}

TEST(LoadersTest, DuplicateIdRejected) {
  CsvReader reader;
  auto ind_doc = reader.ParseString("id,gender\n1,F\n1,M\n");
  auto grp_doc = reader.ParseString("id,sector\n7,trade\n");
  auto mem_doc = reader.ParseString("individualID,groupID\n1,7\n");
  Schema ind_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
  });
  Schema grp_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"sector", ColumnType::kCategorical, AttributeKind::kContext},
  });
  auto inputs = LoadInputsFromCsv(ind_doc.value(), ind_schema,
                                  grp_doc.value(), grp_schema,
                                  mem_doc.value());
  EXPECT_EQ(inputs.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Goldens: the finalTable's bytes and dictionary order, and the relation
// encoded from it. Item ids and unit ids follow the output dictionaries'
// codes, and the cube's cell order follows the item ids, so the order in
// which the join assigns codes is part of its output.
// ---------------------------------------------------------------------------

// Every categorical and set column's dictionary, in code order.
std::string DictionaryText(const Table& table) {
  std::string out;
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.NumAttributes(); ++c) {
    const ColumnType type = schema.attribute(c).type;
    if (type != ColumnType::kCategorical &&
        type != ColumnType::kCategoricalSet) {
      continue;
    }
    out += schema.attribute(c).name + ":";
    const relational::Dictionary& dict = table.dictionary(c);
    for (relational::Code code = 0; code < dict.size(); ++code) {
      out += " " + dict.ValueOf(code);
    }
    out += "\n";
  }
  return out;
}

// The catalog (column and label, in item order), the unit labels, and
// each row's unit and items.
std::string EncodedText(const relational::EncodedRelation& encoded) {
  std::string out;
  for (fpm::ItemId item = 0; item < encoded.catalog.size(); ++item) {
    out += std::to_string(encoded.catalog.info(item).attr_index) + " " +
           encoded.catalog.Label(item) + "\n";
  }
  out += "units:";
  for (const std::string& label : encoded.unit_labels) out += " " + label;
  out += "\n";
  for (uint32_t row = 0; row < encoded.db.NumTransactions(); ++row) {
    out += std::to_string(encoded.row_unit[row]) + ":";
    for (fpm::ItemId item : encoded.db.Transaction(row)) {
      out += " " + std::to_string(item);
    }
    out += "\n";
  }
  return out;
}

// Every item is found again under its own (attribute, value).
void ExpectCatalogFindsEveryItem(const relational::ItemCatalog& catalog) {
  for (fpm::ItemId item = 0; item < catalog.size(); ++item) {
    const relational::ItemInfo& info = catalog.info(item);
    EXPECT_EQ(catalog.Find(info.attr_name, info.value), item)
        << catalog.Label(item);
  }
}

// A set-valued group attribute whose input dictionary codes `transports`
// before `electricity`, an individual set column, int64 and double
// columns, a membership listed twice, one outside the snapshot date, an
// individual and a group without an active membership, and units first
// seen out of label order.
ScubeInputs GoldenJoinInputs() {
  Schema ind_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"birth_year", ColumnType::kInt64, AttributeKind::kIgnore},
      {"languages", ColumnType::kCategoricalSet, AttributeKind::kSegregation},
      {"score", ColumnType::kDouble, AttributeKind::kIgnore},
      {"residence", ColumnType::kCategorical, AttributeKind::kContext},
  });
  Table individuals(ind_schema);
  for (const std::vector<std::string>& row :
       std::vector<std::vector<std::string>>{
           {"10", "M", "1961", "{it, en}", "0.5", "south"},
           {"11", "F", "1975", "{fr, es}", "1.25", "north"},
           {"12", "F", "1980", "{en, de, it}", "-3", "north"},
           {"13", "M", "1990", "{}", "2", "west"},
           {"14", "M", "1955", "de", "7.125", "north"},
       }) {
    EXPECT_TRUE(individuals.AppendRowFromStrings(row).ok());
  }

  Schema grp_schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"sectors", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"hq_region", ColumnType::kCategorical, AttributeKind::kContext},
      {"employees", ColumnType::kInt64, AttributeKind::kIgnore},
  });
  Table groups(grp_schema);
  for (const std::vector<std::string>& row :
       std::vector<std::vector<std::string>>{
           {"100", "{transports, electricity}", "north", "5"},
           {"101", "{electricity}", "south", "7"},
           {"102", "{mining, agriculture}", "north", "1"},
           {"103", "{finance}", "east", "2"},
           {"104", "{agriculture, transports}", "south", "3"},
       }) {
    EXPECT_TRUE(groups.AppendRowFromStrings(row).ok());
  }

  graph::BipartiteGraph membership(5, 5);
  EXPECT_TRUE(membership.AddMembership(2, 4).ok());
  EXPECT_TRUE(membership.AddMembership(0, 0).ok());
  EXPECT_TRUE(membership.AddMembership(1, 3, 2000, 2005).ok());
  EXPECT_TRUE(membership.AddMembership(0, 1).ok());
  EXPECT_TRUE(membership.AddMembership(0, 0).ok());  // listed twice
  EXPECT_TRUE(membership.AddMembership(4, 1).ok());
  EXPECT_TRUE(membership.AddMembership(2, 2).ok());
  EXPECT_TRUE(membership.AddMembership(0, 4).ok());
  EXPECT_TRUE(membership.AddMembership(1, 2).ok());
  return ScubeInputs(std::move(individuals), std::move(groups),
                     std::move(membership));
}

TEST(FinalTableGoldenTest, HandBuiltJoinBytesAndCodeOrder) {
  // Groups 0, 1 -> unit 0; 2 -> 1; 3 -> 2; 4 -> 3.
  auto table = BuildFinalTable(GoldenJoinInputs(),
                               graph::NormalizeLabels({5, 5, 9, 1, 7}),
                               TableBuilderOptions{});
  ASSERT_TRUE(table.ok()) << table.status();
  // Rows in (individual, unit) order; a set renders in code order, and a
  // group union's new values take codes in string order (`electricity`
  // before `transports`), an individual set's in its input code order
  // (`fr` before `es`).
  EXPECT_EQ(table->ToCsvString(),
            "gender,birth_year,languages,score,residence,sectors,hq_region,"
            "unitID\n"
            "M,1961,\"{it,en}\",0.500000,south,\"{electricity,transports}\","
            "\"{north,south}\",c0\n"
            "M,1961,\"{it,en}\",0.500000,south,\"{transports,agriculture}\","
            "{south},c3\n"
            "F,1975,\"{fr,es}\",1.250000,north,\"{agriculture,mining}\","
            "{north},c1\n"
            "F,1980,\"{it,en,de}\",-3.000000,north,\"{agriculture,mining}\","
            "{north},c1\n"
            "F,1980,\"{it,en,de}\",-3.000000,north,"
            "\"{transports,agriculture}\",{south},c3\n"
            "M,1955,{de},7.125000,north,{electricity},{south},c0\n");
  EXPECT_EQ(DictionaryText(table.value()),
            "gender: M F\n"
            "languages: it en fr es de\n"
            "residence: south north\n"
            "sectors: electricity transports agriculture mining\n"
            "hq_region: north south\n"
            "unitID: c0 c3 c1\n");
  auto encoded = relational::EncodeForAnalysis(table.value());
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(EncodedText(encoded.value()),
            "0 gender=M\n"
            "2 languages=it\n"
            "2 languages=en\n"
            "4 residence=south\n"
            "5 sectors=electricity\n"
            "5 sectors=transports\n"
            "6 hq_region=north\n"
            "6 hq_region=south\n"
            "5 sectors=agriculture\n"
            "0 gender=F\n"
            "2 languages=fr\n"
            "2 languages=es\n"
            "4 residence=north\n"
            "5 sectors=mining\n"
            "2 languages=de\n"
            "units: c0 c3 c1\n"
            "0: 0 1 2 3 4 5 6 7\n"
            "1: 0 1 2 3 5 7 8\n"
            "2: 6 8 9 10 11 12 13\n"
            "2: 1 2 6 8 9 12 13 14\n"
            "1: 1 2 5 7 8 9 12 14\n"
            "0: 0 4 7 12 14\n");
  ExpectCatalogFindsEveryItem(encoded->catalog);
}

TEST(FinalTableGoldenTest, DatagenScenarioTableAndEncodingArePinned) {
  // The scenario and pipeline of CubeBuilderGoldenTest.
  auto scenario =
      datagen::GenerateScenario(datagen::ItalianConfig(0.002, 11));
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupClusters;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.mode = fpm::MineMode::kClosed;
  config.cube.max_sa_items = 3;
  config.cube.max_ca_items = 2;
  config.cube.min_support = 5;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  ASSERT_TRUE(result.ok()) << result.status();
  const Table& table = result->final_table;
  EXPECT_EQ(table.NumRows(), 12518u);
  EXPECT_EQ(HashBytes(table.ToCsvString()), 0x73a34666cb7e0963ULL);
  EXPECT_EQ(HashBytes(DictionaryText(table)), 0x6e16ea073d03597aULL);
  auto encoded = relational::EncodeForAnalysis(table);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(encoded->catalog.size(), 73u);
  EXPECT_EQ(encoded->unit_labels.size(), 3900u);
  EXPECT_EQ(HashBytes(EncodedText(encoded.value())), 0x089404dfca74906eULL);
  ExpectCatalogFindsEveryItem(encoded->catalog);
}

TEST(FinalTableGoldenTest, DirectorCommunitiesTableAndEncodingArePinned) {
  // Scenario 2 on the same inputs: the units are communities of directors
  // linked by a shared board, and each director is one row.
  auto scenario =
      datagen::GenerateScenario(datagen::ItalianConfig(0.002, 11));
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kIndividualClusters;
  config.method = pipeline::ClusterMethod::kConnectedComponents;
  config.cube.mode = fpm::MineMode::kClosed;
  config.cube.max_sa_items = 1;
  config.cube.max_ca_items = 1;
  config.cube.min_support = 10;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  ASSERT_TRUE(result.ok()) << result.status();
  const Table& table = result->final_table;
  EXPECT_EQ(table.NumRows(), 9820u);
  EXPECT_EQ(HashBytes(table.ToCsvString()), 0x6d5a6d5650d9b622ULL);
  EXPECT_EQ(HashBytes(DictionaryText(table)), 0xc34ab135c2766200ULL);
  auto encoded = relational::EncodeForAnalysis(table);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(encoded->catalog.size(), 31u);
  EXPECT_EQ(encoded->unit_labels.size(), 1658u);
  EXPECT_EQ(HashBytes(EncodedText(encoded.value())), 0x4c5a84b9a84fa709ULL);
  ExpectCatalogFindsEveryItem(encoded->catalog);
}

}  // namespace
}  // namespace etl
}  // namespace scube
