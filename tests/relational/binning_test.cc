#include "relational/binning.h"

#include <gtest/gtest.h>

namespace scube {
namespace relational {
namespace {

TEST(BinnerTest, FromEdgesLabels) {
  // The paper's age bins: 15-38, 39-46, 47-54, 55-65.
  auto b = Binner::FromEdges({15, 39, 47, 55, 66});
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->NumBins(), 4u);
  EXPECT_EQ(b->LabelOf(15), "15-38");
  EXPECT_EQ(b->LabelOf(38), "15-38");
  EXPECT_EQ(b->LabelOf(39), "39-46");
  EXPECT_EQ(b->LabelOf(46), "39-46");
  EXPECT_EQ(b->LabelOf(47), "47-54");
  EXPECT_EQ(b->LabelOf(55), "55-65");
  EXPECT_EQ(b->LabelOf(65), "55-65");
  EXPECT_EQ(b->LabelOf(14), "<15");
  EXPECT_EQ(b->LabelOf(66), ">=66");
}

TEST(BinnerTest, FromEdgesValidation) {
  EXPECT_FALSE(Binner::FromEdges({1}).ok());
  EXPECT_FALSE(Binner::FromEdges({1, 1}).ok());
  EXPECT_FALSE(Binner::FromEdges({2, 1}).ok());
}

TEST(BinnerTest, DiscretizeColumnAppendsAttribute) {
  Schema schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"age", ColumnType::kInt64, AttributeKind::kIgnore},
      {"unitID", ColumnType::kInt64, AttributeKind::kUnit},
  });
  Table t(schema);
  ASSERT_TRUE(t.AppendRow({int64_t{1}, int64_t{22}, int64_t{0}}).ok());
  ASSERT_TRUE(t.AppendRow({int64_t{2}, int64_t{45}, int64_t{0}}).ok());
  ASSERT_TRUE(t.AppendRow({int64_t{3}, int64_t{60}, int64_t{1}}).ok());

  auto binner = Binner::FromEdges({15, 39, 47, 55, 66});
  ASSERT_TRUE(binner.ok());
  ASSERT_TRUE(Binner::DiscretizeColumn(
                  &t, "age",
                  {"age_bin", ColumnType::kCategorical,
                   AttributeKind::kSegregation},
                  binner.value())
                  .ok());
  int col = t.schema().IndexOf("age_bin");
  ASSERT_GE(col, 0);
  EXPECT_EQ(t.CategoricalValue(0, static_cast<size_t>(col)), "15-38");
  EXPECT_EQ(t.CategoricalValue(1, static_cast<size_t>(col)), "39-46");
  EXPECT_EQ(t.CategoricalValue(2, static_cast<size_t>(col)), "55-65");
}

TEST(BinnerTest, DiscretizeMissingOrWrongTypeColumn) {
  Table t(Schema({{"name", ColumnType::kCategorical, AttributeKind::kId}}));
  auto binner = Binner::FromEdges({0, 10});
  ASSERT_TRUE(binner.ok());
  AttributeSpec spec{"b", ColumnType::kCategorical, AttributeKind::kContext};
  EXPECT_EQ(Binner::DiscretizeColumn(&t, "zzz", spec, binner.value()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Binner::DiscretizeColumn(&t, "name", spec, binner.value()).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace relational
}  // namespace scube
