#include "cube/cube.h"

#include "cube/cube_view.h"

namespace scube {
namespace cube {

void SegregationCube::Insert(CubeCell cell) {
  CellCoordinates key = cell.coords;
  cells_[key] = std::move(cell);
}

const CubeCell* SegregationCube::Find(const CellCoordinates& coords) const {
  auto it = cells_.find(coords);
  return it == cells_.end() ? nullptr : &it->second;
}

const CubeCell* SegregationCube::Find(const fpm::Itemset& sa,
                                      const fpm::Itemset& ca) const {
  return Find(CellCoordinates{sa, ca});
}

size_t SegregationCube::NumDefinedCells() const {
  size_t count = 0;
  for (const auto& [coords, cell] : cells_) {
    if (cell.indexes.defined) ++count;
  }
  return count;
}

CubeView SegregationCube::Seal(size_t num_threads) && {
  std::vector<CubeCell> cells;
  cells.reserve(cells_.size());
  for (auto& [coords, cell] : cells_) cells.push_back(std::move(cell));
  cells_.clear();
  return CubeView(std::move(catalog_), std::move(unit_labels_),
                  std::move(cells), num_threads);
}

}  // namespace cube
}  // namespace scube
