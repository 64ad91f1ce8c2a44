#include "relational/transactions.h"

#include <gtest/gtest.h>

namespace scube {
namespace relational {
namespace {

Table FinalTableFixture() {
  // Mirrors the finalTable of the paper's Fig. 3: SA = gender, age bin,
  // birthplace; CA = residence, sector (multi-valued); unitID.
  Schema schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"age", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"birthplace", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"residence", ColumnType::kCategorical, AttributeKind::kContext},
      {"sector", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"unitID", ColumnType::kInt64, AttributeKind::kUnit},
  });
  Table t(schema);
  EXPECT_TRUE(t.AppendRowFromStrings(
                   {"M", "15-38", "foreign", "north", "{education}", "1"})
                  .ok());
  EXPECT_TRUE(t.AppendRowFromStrings({"F", "39-46", "south", "south",
                                      "{electricity, transports}", "2"})
                  .ok());
  EXPECT_TRUE(t.AppendRowFromStrings(
                   {"M", "55-65", "north", "south", "{agriculture}", "1"})
                  .ok());
  return t;
}

TEST(EncodeTest, ProducesOneTransactionPerRow) {
  auto enc = EncodeForAnalysis(FinalTableFixture());
  ASSERT_TRUE(enc.ok()) << enc.status();
  EXPECT_EQ(enc->db.NumTransactions(), 3u);
  // Row 1 has 4 single-valued mined attrs + 2 sector values = 6 items.
  EXPECT_EQ(enc->db.Transaction(1).size(), 6u);
  EXPECT_EQ(enc->db.Transaction(0).size(), 5u);
}

TEST(EncodeTest, CatalogLabelsAndKinds) {
  auto enc = EncodeForAnalysis(FinalTableFixture());
  ASSERT_TRUE(enc.ok());
  const ItemCatalog& cat = enc->catalog;
  fpm::ItemId female = cat.Find("gender", "F");
  ASSERT_NE(female, fpm::kInvalidItem);
  EXPECT_EQ(cat.Label(female), "gender=F");
  EXPECT_EQ(cat.info(female).kind, AttributeKind::kSegregation);

  fpm::ItemId transports = cat.Find("sector", "transports");
  ASSERT_NE(transports, fpm::kInvalidItem);
  EXPECT_EQ(cat.info(transports).kind, AttributeKind::kContext);
  EXPECT_EQ(cat.Label(transports), "sector=transports");

  EXPECT_EQ(cat.Find("gender", "X"), fpm::kInvalidItem);
}

TEST(EncodeTest, SplitSeparatesSaFromCa) {
  auto enc = EncodeForAnalysis(FinalTableFixture());
  ASSERT_TRUE(enc.ok());
  const ItemCatalog& cat = enc->catalog;
  fpm::ItemId female = cat.Find("gender", "F");
  fpm::ItemId north = cat.Find("residence", "north");
  fpm::ItemId edu = cat.Find("sector", "education");
  ASSERT_NE(north, fpm::kInvalidItem);
  fpm::Itemset mixed({female, north, edu});
  fpm::Itemset sa, ca;
  cat.Split(mixed, &sa, &ca);
  EXPECT_EQ(sa, fpm::Itemset({female}));
  EXPECT_EQ(ca, fpm::Itemset({north, edu}));
}

TEST(EncodeTest, LabelSetRendering) {
  auto enc = EncodeForAnalysis(FinalTableFixture());
  ASSERT_TRUE(enc.ok());
  const ItemCatalog& cat = enc->catalog;
  fpm::ItemId female = cat.Find("gender", "F");
  fpm::ItemId north = cat.Find("residence", "north");
  EXPECT_EQ(cat.LabelSet(fpm::Itemset({female, north})),
            "gender=F & residence=north");
  EXPECT_EQ(cat.LabelSet(fpm::Itemset()), "*");
}

TEST(EncodeTest, UnitsAreDenseWithLabels) {
  auto enc = EncodeForAnalysis(FinalTableFixture());
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->row_unit, (std::vector<uint32_t>{0, 1, 0}));
  EXPECT_EQ(enc->unit_labels, (std::vector<std::string>{"1", "2"}));
}

TEST(EncodeTest, CategoricalUnitColumn) {
  Schema schema({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"sector", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  Table t(schema);
  ASSERT_TRUE(t.AppendRowFromStrings({"F", "education"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"M", "energy"}).ok());
  ASSERT_TRUE(t.AppendRowFromStrings({"F", "education"}).ok());
  auto enc = EncodeForAnalysis(t);
  ASSERT_TRUE(enc.ok()) << enc.status();
  EXPECT_EQ(enc->row_unit, (std::vector<uint32_t>{0, 1, 0}));
  EXPECT_EQ(enc->unit_labels,
            (std::vector<std::string>{"education", "energy"}));
}

TEST(EncodeTest, NumericSaRequiresBinning) {
  Schema schema({
      {"age", ColumnType::kInt64, AttributeKind::kSegregation},
      {"unitID", ColumnType::kInt64, AttributeKind::kUnit},
  });
  Table t(schema);
  ASSERT_TRUE(t.AppendRowFromStrings({"30", "1"}).ok());
  auto enc = EncodeForAnalysis(t);
  EXPECT_EQ(enc.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(enc.status().message().find("bin"), std::string::npos);
}

TEST(EncodeTest, InvalidSchemaRejected) {
  Schema schema({{"x", ColumnType::kCategorical, AttributeKind::kContext}});
  Table t(schema);
  auto enc = EncodeForAnalysis(t);
  EXPECT_EQ(enc.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EncodeTest, SharedValuesAcrossAttributesGetDistinctItems) {
  Schema schema({
      {"birthplace", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"residence", ColumnType::kCategorical, AttributeKind::kContext},
      {"unitID", ColumnType::kInt64, AttributeKind::kUnit},
  });
  Table t(schema);
  ASSERT_TRUE(t.AppendRowFromStrings({"north", "north", "0"}).ok());
  auto enc = EncodeForAnalysis(t);
  ASSERT_TRUE(enc.ok());
  // "north" as birthplace and "north" as residence are different items.
  EXPECT_EQ(enc->catalog.size(), 2u);
  const fpm::ItemId birthplace = enc->catalog.Find("birthplace", "north");
  const fpm::ItemId residence = enc->catalog.Find("residence", "north");
  ASSERT_NE(birthplace, fpm::kInvalidItem);
  ASSERT_NE(residence, fpm::kInvalidItem);
  EXPECT_NE(birthplace, residence);
  EXPECT_EQ(enc->catalog.info(birthplace).kind, AttributeKind::kSegregation);
  EXPECT_EQ(enc->catalog.info(residence).kind, AttributeKind::kContext);
}

}  // namespace
}  // namespace relational
}  // namespace scube
