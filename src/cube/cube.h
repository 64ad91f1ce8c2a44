// SegregationCube: the multi-dimensional segregation data cube (paper §2).
//
// A cell is addressed by (SA itemset, CA itemset) coordinates; its metrics
// are the six segregation indexes. The cube owns the item catalog, which the
// sealed view takes over to label cells.
//
// This is the *mutable build-side* container: builders Insert() cells into
// it, then an rvalue Seal() moves the result into an immutable, indexed
// CubeView (cube/cube_view.h) — the structure every read path (explorer,
// SCubeQL executor, serving layer, viz, the cube.csv export) consumes. Here
// a cell can only be inserted or found by its coordinates.

#ifndef SCUBE_CUBE_CUBE_H_
#define SCUBE_CUBE_CUBE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "cube/cell.h"
#include "relational/transactions.h"

namespace scube {
namespace cube {

class CubeView;

/// \brief Materialised segregation data cube (mutable build side).
class SegregationCube {
 public:
  SegregationCube() = default;
  SegregationCube(relational::ItemCatalog catalog,
                  std::vector<std::string> unit_labels)
      : catalog_(std::move(catalog)), unit_labels_(std::move(unit_labels)) {}

  /// The item catalog mapping items to (attribute, value) pairs.
  const relational::ItemCatalog& catalog() const { return catalog_; }

  /// Labels of the organisational units the indexes were computed over.
  const std::vector<std::string>& unit_labels() const { return unit_labels_; }

  /// Inserts or replaces a cell.
  void Insert(CubeCell cell);

  /// Cell at the given coordinates, or nullptr.
  const CubeCell* Find(const CellCoordinates& coords) const;
  const CubeCell* Find(const fpm::Itemset& sa, const fpm::Itemset& ca) const;

  size_t NumCells() const { return cells_.size(); }
  size_t NumDefinedCells() const;

  /// Freezes the cube into an immutable, indexed CubeView, moving cells,
  /// catalog and labels into the view (seal a copy to keep the cube).
  /// `num_threads` parallelises the view's index construction (posting
  /// lists, slice groups, adjacency, ranked orders, findings) on the
  /// shared pool:
  /// 1 = sequential, 0 = all hardware threads, N = at most N threads.
  /// The sealed view is identical for every setting.
  CubeView Seal(size_t num_threads = 1) &&;

 private:
  relational::ItemCatalog catalog_;
  std::vector<std::string> unit_labels_;
  std::unordered_map<CellCoordinates, CubeCell, CellCoordinatesHash> cells_;
};

}  // namespace cube
}  // namespace scube

#endif  // SCUBE_CUBE_CUBE_H_
