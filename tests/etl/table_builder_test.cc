#include "etl/table_builder.h"

#include <gtest/gtest.h>

#include "etl/loaders.h"

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

}  // namespace
}  // namespace etl
}  // namespace scube
