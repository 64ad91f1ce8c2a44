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

}  // namespace
}  // namespace relational
}  // namespace scube
