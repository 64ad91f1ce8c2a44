#include "cube/cube.h"

#include <algorithm>

#include "cube/cube_view.h"

namespace scube {
namespace cube {

size_t SegregationCube::NumDefinedCells() const {
  return static_cast<size_t>(
      std::count_if(cells_.begin(), cells_.end(),
                    [](const CubeCell& cell) { return cell.indexes.defined; }));
}

CubeView SegregationCube::Seal(size_t num_threads) && {
  return CubeView(std::move(catalog_), std::move(unit_labels_),
                  std::move(cells_), num_threads);
}

}  // namespace cube
}  // namespace scube
