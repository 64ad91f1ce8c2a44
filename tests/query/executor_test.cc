#include "query/executor.h"

#include <gtest/gtest.h>

#include "cube/cube.h"

#include "query/parser.h"
#include "query/query_result.h"

namespace scube {
namespace query {
namespace {

// Hand-built fixture (the MakeCell pattern of cube_test): items
//   sex=F (SA, id 0), age=young (SA, id 1),
//   region=north (CA, id 2), region=south (CA, id 3).
cube::CubeCell MakeCell(std::vector<fpm::ItemId> sa,
                        std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m,
                        double dissimilarity, bool defined = true) {
  cube::CubeCell cell;
  cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                      fpm::Itemset(std::move(ca))};
  cell.context_size = t;
  cell.minority_size = m;
  cell.num_units = 2;
  cell.indexes.defined = defined;
  cell.indexes.values[static_cast<size_t>(
      indexes::IndexKind::kDissimilarity)] = dissimilarity;
  return cell;
}

cube::CubeView MakeView() {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);      // id 0
  catalog.GetOrAdd(1, "age", "young", AttributeKind::kSegregation);  // id 1
  catalog.GetOrAdd(2, "region", "north", AttributeKind::kContext);   // id 2
  catalog.GetOrAdd(3, "region", "south", AttributeKind::kContext);   // id 3

  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  cube.Insert(MakeCell({}, {}, 100, 0, 0.0, /*defined=*/false));  // root
  cube.Insert(MakeCell({0}, {}, 100, 40, 0.10));       // F | *
  cube.Insert(MakeCell({1}, {}, 100, 30, 0.05));       // young | *
  cube.Insert(MakeCell({0, 1}, {}, 100, 12, 0.30));    // F & young | *
  cube.Insert(MakeCell({}, {2}, 60, 0, 0.0, false));   // * | north
  cube.Insert(MakeCell({0}, {2}, 60, 25, 0.50));       // F | north
  cube.Insert(MakeCell({0}, {3}, 40, 15, 0.20));       // F | south
  cube.Insert(MakeCell({1}, {2}, 60, 18, 0.15));       // young | north
  cube.Insert(MakeCell({0, 1}, {2}, 60, 8, 0.70));     // F & young | north
  return std::move(cube).Seal();
}

QueryResult MustExecute(const Executor& executor, const std::string& text) {
  auto query = Parse(text);
  EXPECT_TRUE(query.ok()) << text << " -> " << query.status();
  auto result = executor.Execute(*query);
  EXPECT_TRUE(result.ok()) << text << " -> " << result.status();
  return result.ok() ? std::move(result).value() : QueryResult{};
}

TEST(ExecutorTest, SliceOneAxisMatchesExactCoordinates) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r = MustExecute(executor, "SLICE sa=sex=F");
  ASSERT_EQ(r.rows.size(), 3u);  // F|*, F|north, F|south in coord order
  EXPECT_EQ(r.rows[0].sa, "sex=F");
  EXPECT_EQ(r.rows[0].ca, "*");
  EXPECT_EQ(r.rows[1].ca, "region=north");
  EXPECT_EQ(r.rows[2].ca, "region=south");
}

TEST(ExecutorTest, SliceBothAxesIsPointLookup) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r =
      MustExecute(executor, "SLICE sa=sex=F | ca=region=north");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].t, 60u);
  EXPECT_EQ(r.rows[0].m, 25u);
  EXPECT_EQ(r.cells_scanned, 1u);  // no scan for a fully addressed cell

  QueryResult missing =
      MustExecute(executor, "SLICE sa=age=young | ca=region=south");
  EXPECT_TRUE(missing.rows.empty());
}

TEST(ExecutorTest, SliceWithoutCoordinatesWalksEveryCellLikeDice) {
  // Only a hand-built Query has this shape (the parser rejects a SLICE
  // with no coordinates): it answers as the unconstrained DICE walk does,
  // every cell in id order.
  cube::CubeView view = MakeView();
  Executor executor(view);
  Query slice;
  slice.verb = Verb::kSlice;
  Query dice;
  dice.verb = Verb::kDice;
  auto all = executor.Execute(slice);
  auto diced = executor.Execute(dice);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_TRUE(diced.ok()) << diced.status();
  ASSERT_EQ(all->rows.size(), view.NumCells());
  ASSERT_EQ(all->rows.size(), diced->rows.size());
  for (size_t i = 0; i < all->rows.size(); ++i) {
    EXPECT_EQ(all->rows[i].sa, diced->rows[i].sa);
    EXPECT_EQ(all->rows[i].ca, diced->rows[i].ca);
  }
}

TEST(ExecutorTest, DiceSelectsSubcube) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r = MustExecute(executor, "DICE sa=sex=F");
  // Every cell whose SA contains sex=F: F|*, F|north, F|south,
  // F&young|*, F&young|north.
  EXPECT_EQ(r.rows.size(), 5u);

  QueryResult filtered =
      MustExecute(executor, "DICE sa=sex=F WHERE T >= 50 AND M >= 20");
  ASSERT_EQ(filtered.rows.size(), 2u);  // F|* (100/40), F|north (60/25)
}

TEST(ExecutorTest, RollupReturnsParents) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r =
      MustExecute(executor, "ROLLUP sa=sex=F & age=young | ca=region=north");
  // Parents of (F & young | north): (young|north), (F|north), (F&young|*).
  ASSERT_EQ(r.rows.size(), 3u);
}

TEST(ExecutorTest, DrilldownReturnsChildrenAndRootWorks) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r = MustExecute(executor, "DRILLDOWN sa=sex=F");
  // Children of (F|*): (F&young|*), (F|north), (F|south).
  ASSERT_EQ(r.rows.size(), 3u);

  QueryResult root = MustExecute(executor, "DRILLDOWN");
  // Children of the root: (F|*), (young|*), (*|north).
  EXPECT_EQ(root.rows.size(), 3u);
}

TEST(ExecutorTest, TopKRanksAndTruncates) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r = MustExecute(
      executor, "TOPK 3 BY dissimilarity WHERE T >= 1 AND M >= 1");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_TRUE(r.has_value);
  EXPECT_DOUBLE_EQ(r.rows[0].value, 0.70);  // F & young | north
  EXPECT_DOUBLE_EQ(r.rows[1].value, 0.50);  // F | north
  EXPECT_DOUBLE_EQ(r.rows[2].value, 0.30);  // F & young | *
  // Undefined and pure-context cells never rank.
  for (const ResultRow& row : r.rows) {
    EXPECT_TRUE(row.defined);
    EXPECT_NE(row.sa, "*");
  }
}

TEST(ExecutorTest, TopKZeroReturnsNoRows) {
  // The parser rejects "TOPK 0", but Query::k is a public field.
  cube::CubeView view = MakeView();
  Executor executor(view);
  Query q = *Parse("TOPK 1 BY dissimilarity");
  q.k = 0;
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST(ExecutorTest, TopKDefaultsToExplorerFloors) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  // Without WHERE, the explorer defaults (T >= 30, M >= 5) apply; every
  // fixture cell passes T, and only M >= 5 cells rank.
  QueryResult r = MustExecute(executor, "TOPK 10 BY dissimilarity");
  EXPECT_EQ(r.rows.size(), 7u);
}

TEST(ExecutorTest, OrderByAndLimit) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r =
      MustExecute(executor, "DICE sa=sex=F ORDER BY T ASC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_LE(r.rows[0].t, r.rows[1].t);
  EXPECT_EQ(r.rows[0].t, 40u);  // F | south
}

TEST(ExecutorTest, SurprisesComputeDeltaAgainstBestParent) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r = MustExecute(
      executor,
      "SURPRISES BY dissimilarity MINDELTA 0.15 WHERE T >= 1 AND M >= 1");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.aux_name, "delta");
  // F|north: 0.5 vs best parent F|* (0.1) -> delta 0.4 (the * | north
  // parent is undefined and must not participate).
  EXPECT_EQ(r.rows[0].ca, "region=north");
  EXPECT_DOUBLE_EQ(r.rows[0].aux, 0.4);
  EXPECT_DOUBLE_EQ(r.rows[1].aux, 0.2);
  EXPECT_DOUBLE_EQ(r.rows[2].aux, 0.2);
}

TEST(ExecutorTest, ResolutionErrors) {
  cube::CubeView view = MakeView();
  Executor executor(view);

  auto unknown_attr = executor.Execute(*Parse("SLICE sa=hair=red"));
  ASSERT_FALSE(unknown_attr.ok());
  EXPECT_EQ(unknown_attr.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown_attr.status().message().find("unknown attribute"),
            std::string::npos);

  auto unknown_value = executor.Execute(*Parse("SLICE sa=sex=X"));
  ASSERT_FALSE(unknown_value.ok());
  EXPECT_NE(unknown_value.status().message().find("unknown value 'X'"),
            std::string::npos);

  auto wrong_axis = executor.Execute(*Parse("SLICE sa=region=north"));
  ASSERT_FALSE(wrong_axis.ok());
  EXPECT_EQ(wrong_axis.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong_axis.status().message().find("context attribute"),
            std::string::npos);
}

// The full texts: they reach clients verbatim in every error envelope. A
// value is looked up before its axis is checked.
TEST(ExecutorTest, ResolutionErrorTextsAreExact) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  auto message = [&executor](const std::string& text) {
    auto result = executor.Execute(*Parse(text));
    return result.ok() ? std::string("OK") : result.status().message();
  };
  EXPECT_EQ(message("SLICE sa=hair=red"), "unknown attribute 'hair'");
  EXPECT_EQ(message("SLICE ca=hair=red"), "unknown attribute 'hair'");
  EXPECT_EQ(message("SLICE sa=sex=X"),
            "unknown value 'X' for attribute 'sex'");
  EXPECT_EQ(message("SLICE sa=region=west"),
            "unknown value 'west' for attribute 'region'");
  EXPECT_EQ(message("SLICE sa=region=north"),
            "attribute 'region' is a context attribute; it belongs in ca=");
  EXPECT_EQ(message("SLICE ca=sex=F"),
            "attribute 'sex' is a segregation attribute; it belongs in sa=");
}

TEST(ExecutorTest, SerialisationShapes) {
  cube::CubeView view = MakeView();
  Executor executor(view);
  QueryResult r = MustExecute(
      executor, "TOPK 2 BY dissimilarity WHERE T >= 1 AND M >= 1");

  std::string csv = ToCsv(r);
  EXPECT_NE(csv.find("sa,ca,T,M,units,dissimilarity"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 rows

  std::string json = ToJson(r);
  EXPECT_NE(json.find("\"verb\":\"TOPK\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":0.7"), std::string::npos);

  // Undefined cells serialise as null (the ⋆ | north cell).
  QueryResult north = MustExecute(executor, "SLICE ca=region=north");
  ASSERT_EQ(north.rows.size(), 4u);  // ⋆, F, young, F&young | north
  EXPECT_NE(ToJson(north).find("null"), std::string::npos);
}

}  // namespace
}  // namespace query
}  // namespace scube
