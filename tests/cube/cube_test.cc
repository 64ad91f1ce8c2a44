#include "cube/cube.h"

#include <gtest/gtest.h>

#include "cube/cube_view.h"

namespace scube {
namespace cube {
namespace {

CubeCell MakeCell(std::vector<fpm::ItemId> sa, std::vector<fpm::ItemId> ca,
                  uint64_t t, uint64_t m, double dissimilarity) {
  CubeCell cell;
  cell.coords = CellCoordinates{fpm::Itemset(std::move(sa)),
                                fpm::Itemset(std::move(ca))};
  cell.context_size = t;
  cell.minority_size = m;
  cell.num_units = 2;
  cell.indexes.defined = true;
  cell.indexes.values[static_cast<size_t>(
      indexes::IndexKind::kDissimilarity)] = dissimilarity;
  return cell;
}

TEST(CellCoordinatesTest, OrderingByTotalLengthThenLex) {
  CellCoordinates root{fpm::Itemset(), fpm::Itemset()};
  CellCoordinates a{fpm::Itemset({0}), fpm::Itemset()};
  CellCoordinates b{fpm::Itemset({0}), fpm::Itemset({5})};
  EXPECT_LT(root, a);
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
  EXPECT_EQ(a, (CellCoordinates{fpm::Itemset({0}), fpm::Itemset()}));
}

TEST(SegregationCubeTest, InsertAppendsAndSealIndexes) {
  SegregationCube cube;
  cube.Insert(MakeCell({1}, {2}, 100, 30, 0.4));
  cube.Insert(MakeCell({1}, {}, 200, 60, 0.5));
  EXPECT_EQ(cube.NumCells(), 2u);

  CubeView view = std::move(cube).Seal();
  ASSERT_EQ(view.NumCells(), 2u);
  const CubeCell* cell = view.Find(fpm::Itemset({1}), fpm::Itemset({2}));
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->context_size, 100u);
  EXPECT_EQ(view.Find(fpm::Itemset({1}), fpm::Itemset())->context_size,
            200u);

  EXPECT_EQ(view.Find(fpm::Itemset({9}), fpm::Itemset()), nullptr);
}

// A cell's coordinates are its address, so a second cell at the same
// coordinates is a caller bug that sealing refuses.
TEST(SegregationCubeDeathTest, SealingEqualCoordinatesAborts) {
  SegregationCube cube;
  cube.Insert(MakeCell({1}, {2}, 100, 30, 0.4));
  cube.Insert(MakeCell({}, {}, 100, 0, 0.0));
  cube.Insert(MakeCell({1}, {2}, 200, 60, 0.5));
  EXPECT_DEATH(std::move(cube).Seal(), "CHECK FAILED");
}

TEST(SegregationCubeTest, CellsDeterministicOrder) {
  SegregationCube cube;
  cube.Insert(MakeCell({1}, {2}, 10, 3, 0.1));
  cube.Insert(MakeCell({}, {}, 50, 20, 0.0));
  cube.Insert(MakeCell({1}, {}, 20, 5, 0.2));
  CubeView view = std::move(cube).Seal();
  auto cells = view.Cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_TRUE(cells[0].coords.sa.empty());  // root first (length 0)
  EXPECT_EQ(cells[1].coords.sa, fpm::Itemset({1}));
  EXPECT_TRUE(cells[1].coords.ca.empty());
  EXPECT_EQ(cells[2].coords.ca, fpm::Itemset({2}));
}

TEST(SegregationCubeTest, Slices) {
  SegregationCube cube;
  cube.Insert(MakeCell({1}, {}, 10, 3, 0.1));
  cube.Insert(MakeCell({1}, {7}, 10, 3, 0.2));
  cube.Insert(MakeCell({2}, {7}, 10, 3, 0.3));
  CubeView view = std::move(cube).Seal();
  EXPECT_EQ(view.SliceBySa(fpm::Itemset({1})).size(), 2u);
  EXPECT_EQ(view.SliceByCa(fpm::Itemset({7})).size(), 2u);
  EXPECT_EQ(view.SliceByCa(fpm::Itemset()).size(), 1u);
  EXPECT_TRUE(view.SliceBySa(fpm::Itemset({9})).empty());
}

TEST(SegregationCubeTest, ParentsAndChildren) {
  SegregationCube cube;
  cube.Insert(MakeCell({}, {}, 40, 0, 0.0));
  cube.Insert(MakeCell({}, {7}, 20, 0, 0.0));
  cube.Insert(MakeCell({1}, {}, 40, 10, 0.1));
  cube.Insert(MakeCell({1}, {7}, 20, 5, 0.2));
  cube.Insert(MakeCell({1, 2}, {}, 40, 4, 0.3));
  cube.Insert(MakeCell({1, 2}, {7}, 20, 2, 0.4));

  CubeView view = std::move(cube).Seal();
  CubeView::CellId mid =
      view.FindId(CellCoordinates{fpm::Itemset({1}), fpm::Itemset({7})});
  ASSERT_NE(mid, CubeView::kNoCell);
  auto parents = view.Parents(mid);
  ASSERT_EQ(parents.size(), 2u);  // remove SA item 1; remove CA item 7

  auto children = view.Children(mid);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(view.cell(children[0]).coords.sa, fpm::Itemset({1, 2}));

  auto root_children = view.Children(view.FindId(CellCoordinates{}));
  EXPECT_EQ(root_children.size(), 2u);  // {1}|* and *|{7}
}

TEST(SegregationCubeTest, NumDefinedCells) {
  SegregationCube cube;
  cube.Insert(MakeCell({1}, {}, 10, 3, 0.5));
  CubeCell undefined_cell = MakeCell({2}, {}, 10, 0, 0.0);
  undefined_cell.indexes.defined = false;
  cube.Insert(std::move(undefined_cell));
  EXPECT_EQ(cube.NumCells(), 2u);
  EXPECT_EQ(cube.NumDefinedCells(), 1u);
}

}  // namespace
}  // namespace cube
}  // namespace scube
