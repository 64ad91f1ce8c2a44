#include "fpm/itemset.h"

#include <gtest/gtest.h>

namespace scube {
namespace fpm {
namespace {

TEST(ItemsetTest, ConstructionSortsAndDedups) {
  Itemset s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.items(), (std::vector<ItemId>{1, 3, 5}));
}

TEST(ItemsetTest, EmptySet) {
  Itemset s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.DebugString(), "[]");
}

TEST(ItemsetTest, Contains) {
  Itemset s({2, 4, 6});
  EXPECT_TRUE(s.Contains(2));
  EXPECT_TRUE(s.Contains(4));
  EXPECT_TRUE(s.Contains(6));
  EXPECT_FALSE(s.Contains(3));
  EXPECT_FALSE(s.Contains(0));
}

TEST(ItemsetTest, SubsetRelation) {
  Itemset sub({1, 3});
  Itemset super({1, 2, 3});
  EXPECT_TRUE(sub.IsSubsetOf(super));
  EXPECT_FALSE(super.IsSubsetOf(sub));
  EXPECT_TRUE(Itemset().IsSubsetOf(sub));
  EXPECT_TRUE(sub.IsSubsetOf(sub));
}

TEST(ItemsetTest, SetOperations) {
  Itemset a({1, 2, 3});
  Itemset b({2, 3, 4});
  EXPECT_EQ(a.Minus(b), Itemset({1}));
  EXPECT_EQ(b.Minus(a), Itemset({4}));
}

TEST(ItemsetTest, WithInsertsInOrder) {
  Itemset s({1, 5});
  EXPECT_EQ(s.With(3), Itemset({1, 3, 5}));
  EXPECT_EQ(s.With(0), Itemset({0, 1, 5}));
  EXPECT_EQ(s.With(9), Itemset({1, 5, 9}));
  EXPECT_EQ(s.With(5), s);
}

TEST(ItemsetTest, HashEqualityContract) {
  Itemset a({7, 8});
  Itemset b({8, 7});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), Itemset({7, 9}).Hash());
}

TEST(ItemsetTest, LexicographicOrder) {
  EXPECT_LT(Itemset({1, 2}), Itemset({1, 3}));
  EXPECT_LT(Itemset({1}), Itemset({1, 0xFFFF}));
  EXPECT_LT(Itemset(), Itemset({0}));
}

TEST(ItemsetTest, DebugString) {
  EXPECT_EQ(Itemset({3, 1}).DebugString(), "[1 3]");
}

}  // namespace
}  // namespace fpm
}  // namespace scube
