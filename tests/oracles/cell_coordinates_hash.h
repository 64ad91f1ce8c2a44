// Hash of a cell's (SA, CA) coordinates for the test oracles that key
// generated cells in an unordered_map. The sealed view needs no such map:
// its SA slice groups answer point lookups. The random cubes the property
// tests generate iterate these maps, so the value must not change.

#ifndef SCUBE_TESTS_ORACLES_CELL_COORDINATES_HASH_H_
#define SCUBE_TESTS_ORACLES_CELL_COORDINATES_HASH_H_

#include <cstddef>

#include "common/hashing.h"
#include "cube/cell.h"

namespace scube {
namespace cube {

struct CellCoordinatesHash {
  size_t operator()(const CellCoordinates& c) const {
    return static_cast<size_t>(HashCombine(c.sa.Hash(), c.ca.Hash()));
  }
};

}  // namespace cube
}  // namespace scube

#endif  // SCUBE_TESTS_ORACLES_CELL_COORDINATES_HASH_H_
