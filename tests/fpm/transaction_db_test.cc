#include "fpm/transaction_db.h"

#include <gtest/gtest.h>

namespace scube {
namespace fpm {
namespace {

TransactionDb SmallDb() {
  // Classic 5-transaction example.
  TransactionDb db;
  db.AddTransaction({0, 1, 2});     // t0
  db.AddTransaction({0, 1});        // t1
  db.AddTransaction({1, 2});        // t2
  db.AddTransaction({0, 2, 3});     // t3
  db.AddTransaction({3});           // t4
  return db;
}

TEST(TransactionDbTest, BasicCounts) {
  TransactionDb db = SmallDb();
  EXPECT_EQ(db.NumTransactions(), 5u);
  EXPECT_EQ(db.NumItems(), 4u);
}

TEST(TransactionDbTest, TransactionsAreSortedAndDeduped) {
  TransactionDb db;
  db.AddTransaction({3, 1, 3, 2, 1});
  EXPECT_EQ(db.Transaction(0), (std::vector<ItemId>{1, 2, 3}));
  EXPECT_EQ(db.ItemSupport(1), 1u);  // a repeated item counts once
}

TEST(TransactionDbTest, ItemSupports) {
  TransactionDb db = SmallDb();
  EXPECT_EQ(db.ItemSupport(0), 3u);
  EXPECT_EQ(db.ItemSupport(1), 3u);
  EXPECT_EQ(db.ItemSupport(2), 3u);
  EXPECT_EQ(db.ItemSupport(3), 2u);
  EXPECT_EQ(db.ItemSupport(99), 0u);  // unseen item
}

TEST(TransactionDbTest, SupportsFollowAppends) {
  TransactionDb db;
  db.AddTransaction({0});
  EXPECT_EQ(db.ItemSupport(0), 1u);
  db.AddTransaction({0, 1});
  EXPECT_EQ(db.ItemSupport(0), 2u);
  EXPECT_EQ(db.ItemSupport(1), 1u);
}

TEST(TransactionDbTest, EmptyTransactionAllowed) {
  TransactionDb db;
  db.AddTransaction({});
  db.AddTransaction({0});
  EXPECT_EQ(db.NumTransactions(), 2u);
  EXPECT_EQ(db.ItemSupport(0), 1u);
}

}  // namespace
}  // namespace fpm
}  // namespace scube
