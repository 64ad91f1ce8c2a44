#include "relational/schema.h"

#include <gtest/gtest.h>

namespace scube {
namespace relational {
namespace {

Schema AnalysisSchema() {
  return Schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"age", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"residence", ColumnType::kCategorical, AttributeKind::kContext},
      {"sector", ColumnType::kCategoricalSet, AttributeKind::kContext},
      {"unitID", ColumnType::kInt64, AttributeKind::kUnit},
  });
}

TEST(SchemaTest, IndexLookup) {
  Schema s = AnalysisSchema();
  EXPECT_EQ(s.NumAttributes(), 6u);
  EXPECT_EQ(s.IndexOf("gender"), 1);
  EXPECT_EQ(s.IndexOf("unitID"), 5);
  EXPECT_EQ(s.IndexOf("nope"), -1);
}

TEST(SchemaTest, IndicesOfKind) {
  Schema s = AnalysisSchema();
  EXPECT_EQ(s.IndicesOfKind(AttributeKind::kSegregation),
            (std::vector<size_t>{1, 2}));
  EXPECT_EQ(s.IndicesOfKind(AttributeKind::kContext),
            (std::vector<size_t>{3, 4}));
  EXPECT_EQ(s.IndicesOfKind(AttributeKind::kUnit), (std::vector<size_t>{5}));
  EXPECT_TRUE(s.IndicesOfKind(AttributeKind::kIgnore).empty());
}

TEST(SchemaTest, DuplicateNameRejected) {
  Schema s;
  EXPECT_TRUE(s.AddAttribute({"x", ColumnType::kCategorical,
                              AttributeKind::kContext}).ok());
  Status dup = s.AddAttribute({"x", ColumnType::kInt64, AttributeKind::kId});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ValidationRequiresSaAndOneUnit) {
  EXPECT_TRUE(AnalysisSchema().ValidateForAnalysis().ok());

  Schema no_sa({{"unitID", ColumnType::kInt64, AttributeKind::kUnit}});
  EXPECT_EQ(no_sa.ValidateForAnalysis().code(),
            StatusCode::kFailedPrecondition);

  Schema no_unit(
      {{"gender", ColumnType::kCategorical, AttributeKind::kSegregation}});
  EXPECT_EQ(no_unit.ValidateForAnalysis().code(),
            StatusCode::kFailedPrecondition);

  Schema two_units({
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"u1", ColumnType::kInt64, AttributeKind::kUnit},
      {"u2", ColumnType::kInt64, AttributeKind::kUnit},
  });
  EXPECT_EQ(two_units.ValidateForAnalysis().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SchemaTest, EnumNames) {
  EXPECT_STREQ(ColumnTypeToString(ColumnType::kCategoricalSet),
               "categorical-set");
}

}  // namespace
}  // namespace relational
}  // namespace scube
