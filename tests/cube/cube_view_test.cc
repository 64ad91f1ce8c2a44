#include "cube/cube_view.h"

#include <gtest/gtest.h>

#include "cube/cube.h"

namespace scube {
namespace cube {
namespace {

CubeCell MakeCell(std::vector<fpm::ItemId> sa, std::vector<fpm::ItemId> ca,
                  uint64_t t, uint64_t m, double dissimilarity,
                  bool defined = true) {
  CubeCell cell;
  cell.coords = CellCoordinates{fpm::Itemset(std::move(sa)),
                                fpm::Itemset(std::move(ca))};
  cell.context_size = t;
  cell.minority_size = m;
  cell.num_units = 2;
  cell.indexes.defined = defined;
  cell.indexes.values[static_cast<size_t>(
      indexes::IndexKind::kDissimilarity)] = dissimilarity;
  return cell;
}

// The executor-test fixture: items sex=F (0), age=young (1) on SA;
// region=north (2), region=south (3) on CA.
CubeView MakeView() {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);      // id 0
  catalog.GetOrAdd(1, "age", "young", AttributeKind::kSegregation);  // id 1
  catalog.GetOrAdd(2, "region", "north", AttributeKind::kContext);   // id 2
  catalog.GetOrAdd(3, "region", "south", AttributeKind::kContext);   // id 3

  SegregationCube cube(std::move(catalog), {"u0", "u1"});
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

TEST(CubeViewTest, CellsSortedAndCounted) {
  CubeView view = MakeView();
  EXPECT_EQ(view.NumCells(), 9u);
  EXPECT_EQ(view.NumDefinedCells(), 7u);
  auto cells = view.Cells();
  ASSERT_EQ(cells.size(), 9u);
  for (size_t i = 1; i < cells.size(); ++i) {
    EXPECT_TRUE(cells[i - 1].coords < cells[i].coords);
  }
  // The span is stable: repeated calls alias the same storage.
  EXPECT_EQ(view.Cells().data(), cells.data());
  // Root (⋆ | ⋆) sorts first under the (|sa|+|ca|, sa, ca) order.
  EXPECT_TRUE(cells[0].coords.sa.empty());
  EXPECT_TRUE(cells[0].coords.ca.empty());
}

TEST(CubeViewTest, PointLookups) {
  CubeView view = MakeView();
  const CubeCell* cell = view.Find(fpm::Itemset({0}), fpm::Itemset({2}));
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->context_size, 60u);
  EXPECT_EQ(cell->minority_size, 25u);
  EXPECT_EQ(view.Find(fpm::Itemset({1}), fpm::Itemset({3})), nullptr);
  EXPECT_EQ(view.FindId(CellCoordinates{fpm::Itemset({1}), fpm::Itemset({3})}),
            CubeView::kNoCell);
  CubeView::CellId id = view.FindId(cell->coords);
  ASSERT_NE(id, CubeView::kNoCell);
  EXPECT_EQ(&view.cell(id), cell);
}

TEST(CubeViewTest, PostingListsAreSortedAndComplete) {
  CubeView view = MakeView();
  // Item 0 (sex=F) appears in the SA of 5 cells.
  auto postings = view.SaPostings(0);
  EXPECT_EQ(postings.size(), 5u);
  for (size_t i = 1; i < postings.size(); ++i) {
    EXPECT_LT(postings[i - 1], postings[i]);
  }
  for (CubeView::CellId id : postings) {
    EXPECT_TRUE(view.cell(id).coords.sa.Contains(0));
  }
  // Item 2 (region=north) appears in the CA of 4 cells.
  EXPECT_EQ(view.CaPostings(2).size(), 4u);
  // Items absent from every cell (or beyond the universe) yield empty.
  EXPECT_TRUE(view.SaPostings(2).empty());  // north is never an SA item
  EXPECT_TRUE(view.SaPostings(999).empty());
}

TEST(CubeViewTest, ExactSliceGroups) {
  CubeView view = MakeView();
  auto f_cells = view.SliceBySa(fpm::Itemset({0}));
  EXPECT_EQ(f_cells.size(), 3u);  // F|*, F|north, F|south
  for (CubeView::CellId id : f_cells) {
    EXPECT_EQ(view.cell(id).coords.sa, fpm::Itemset({0}));
  }
  EXPECT_EQ(view.SliceByCa(fpm::Itemset({2})).size(), 4u);
  EXPECT_EQ(view.SliceByCa(fpm::Itemset()).size(), 4u);  // the ⋆ context
  EXPECT_TRUE(view.SliceBySa(fpm::Itemset({9})).empty());
}

TEST(CubeViewTest, AdjacencyMatchesCoordinateAlgebra) {
  CubeView view = MakeView();
  CubeView::CellId id =
      view.FindId(CellCoordinates{fpm::Itemset({0, 1}), fpm::Itemset({2})});
  ASSERT_NE(id, CubeView::kNoCell);

  // Parents of (F & young | north), removal order: drop item 0 ->
  // (young|north), drop item 1 -> (F|north), drop item 2 -> (F&young|*).
  auto parents = view.Parents(id);
  ASSERT_EQ(parents.size(), 3u);
  EXPECT_EQ(view.cell(parents[0]).coords,
            (CellCoordinates{fpm::Itemset({1}), fpm::Itemset({2})}));
  EXPECT_EQ(view.cell(parents[1]).coords,
            (CellCoordinates{fpm::Itemset({0}), fpm::Itemset({2})}));
  EXPECT_EQ(view.cell(parents[2]).coords,
            (CellCoordinates{fpm::Itemset({0, 1}), fpm::Itemset()}));
  EXPECT_TRUE(view.Children(id).empty());

  // Children of (F | ⋆): (F|north), (F|south), (F&young|⋆) in coord order.
  CubeView::CellId f_star =
      view.FindId(CellCoordinates{fpm::Itemset({0}), fpm::Itemset()});
  auto children = view.Children(f_star);
  ASSERT_EQ(children.size(), 3u);
  for (size_t i = 1; i < children.size(); ++i) {
    EXPECT_LT(children[i - 1], children[i]);
  }
}

TEST(CubeViewTest, ParentsChildrenOfAbsentCoordinates) {
  CubeView view = MakeView();
  // (young | south) is not a cell; its parents still resolve by probing.
  CellCoordinates absent{fpm::Itemset({1}), fpm::Itemset({3})};
  ASSERT_EQ(view.FindId(absent), CubeView::kNoCell);
  auto parents = view.ParentsOf(absent);
  ASSERT_EQ(parents.size(), 1u);  // (⋆|south) absent, (young|⋆) present
  EXPECT_EQ(view.cell(parents[0]).coords,
            (CellCoordinates{fpm::Itemset({1}), fpm::Itemset()}));

  // Children of an absent coordinate probe one-item extensions.
  CellCoordinates root{fpm::Itemset(), fpm::Itemset()};
  auto root_children = view.ChildrenOf(root);
  EXPECT_EQ(root_children.size(), 3u);  // F|*, young|*, *|north
}

TEST(CubeViewTest, DiceIntersectsPostingLists) {
  CubeView view = MakeView();
  uint64_t examined = 0;
  auto ids = view.Dice(fpm::Itemset({0}), fpm::Itemset({2}), &examined);
  ASSERT_EQ(ids.size(), 2u);  // F|north, F&young|north
  for (CubeView::CellId id : ids) {
    EXPECT_TRUE(fpm::Itemset({0}).IsSubsetOf(view.cell(id).coords.sa));
    EXPECT_TRUE(fpm::Itemset({2}).IsSubsetOf(view.cell(id).coords.ca));
  }
  // The shortest posting list drives the intersection.
  EXPECT_LE(examined, view.SaPostings(0).size());

  // No constraints selects every cell.
  EXPECT_EQ(view.Dice(fpm::Itemset(), fpm::Itemset()).size(), 9u);
  // Unknown items select nothing.
  EXPECT_TRUE(view.Dice(fpm::Itemset({42}), fpm::Itemset()).empty());
}

TEST(CubeViewTest, RankedOrderIsValueDescending) {
  CubeView view = MakeView();
  auto ranked = view.RankedByIndex(indexes::IndexKind::kDissimilarity);
  ASSERT_EQ(ranked.size(), view.NumDefinedCells());
  for (size_t i = 1; i < ranked.size(); ++i) {
    double prev = view.cell(ranked[i - 1]).Value(
        indexes::IndexKind::kDissimilarity);
    double cur =
        view.cell(ranked[i]).Value(indexes::IndexKind::kDissimilarity);
    EXPECT_GE(prev, cur);
    if (prev == cur) EXPECT_LT(ranked[i - 1], ranked[i]);
  }
  EXPECT_DOUBLE_EQ(
      view.cell(ranked[0]).Value(indexes::IndexKind::kDissimilarity), 0.70);
}

TEST(CubeViewTest, SealPreservesCatalogAndLabels) {
  relational::ItemCatalog catalog;
  catalog.GetOrAdd(0, "sex", "F", relational::AttributeKind::kSegregation);
  SegregationCube cube(std::move(catalog), {"a", "b"});
  cube.Insert(MakeCell({0}, {}, 10, 4, 0.5));

  // Sealing a copy keeps the cube's cells.
  CubeView copied = SegregationCube(cube).Seal();
  EXPECT_EQ(cube.NumCells(), 1u);
  EXPECT_EQ(copied.NumCells(), 1u);
  EXPECT_EQ(copied.unit_labels().size(), 2u);
  EXPECT_EQ(copied.LabelOf(copied.Cells()[0].coords), "sex=F | *");

  // Rvalue seal consumes.
  CubeView moved = std::move(cube).Seal();
  EXPECT_EQ(moved.NumCells(), 1u);
}

// The cube.csv bytes: one row per cell in coordinate order, "*" for an
// empty axis, " & " between items, RFC 4180 quoting, six decimals, and
// empty index columns for an undefined cell.
TEST(CubeViewTest, CsvExportBytesArePinned) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);      // id 0
  catalog.GetOrAdd(1, "age", "18-38", AttributeKind::kSegregation);  // id 1
  catalog.GetOrAdd(2, "region", "north, \"coast\"",
                   AttributeKind::kContext);                        // id 2
  SegregationCube cube(std::move(catalog), {"u0", "u1", "u2"});
  CubeCell full = MakeCell({0, 1}, {2}, 60, 8, 0.0);
  full.num_units = 3;
  full.indexes.values = {0.123456789, 1.0 / 3.0, 2e-7, 0.5, 1.0, 12345678.0};
  cube.Insert(full);
  cube.Insert(MakeCell({}, {}, 100, 0, 0.0, /*defined=*/false));
  cube.Insert(MakeCell({0}, {2}, 60, 25, 0.5));
  cube.Insert(MakeCell({0}, {}, 100, 40, 0.1));

  EXPECT_EQ(
      std::move(cube).Seal().ToCsv(),
      "sa,ca,T,M,units,dissimilarity,gini,information,isolation,"
      "interaction,atkinson\n"
      "*,*,100,0,2,,,,,,\n"
      "sex=F,*,100,40,2,0.100000,0.000000,0.000000,0.000000,0.000000,"
      "0.000000\n"
      "sex=F,\"region=north, \"\"coast\"\"\",60,25,2,0.500000,0.000000,"
      "0.000000,0.000000,0.000000,0.000000\n"
      "sex=F & age=18-38,\"region=north, \"\"coast\"\"\",60,8,3,0.123457,"
      "0.333333,0.000000,0.500000,1.000000,12345678.000000\n");
}

TEST(CubeViewTest, HandBuiltCubesWithoutCatalogStillIndex) {
  // Item ids beyond the (empty) catalog must not break the posting
  // universe — the store tests publish such cubes.
  SegregationCube cube;
  cube.Insert(MakeCell({7}, {}, 10, 2, 0.1));
  cube.Insert(MakeCell({7}, {11}, 8, 2, 0.2));
  CubeView view = std::move(cube).Seal();
  EXPECT_EQ(view.SaPostings(7).size(), 2u);
  EXPECT_EQ(view.CaPostings(11).size(), 1u);
  EXPECT_EQ(view.Dice(fpm::Itemset({7}), fpm::Itemset({11})).size(), 1u);
}

}  // namespace
}  // namespace cube
}  // namespace scube
