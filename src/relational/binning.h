// Binning: discretisation of numeric attributes into categorical bins.
//
// Segregation attributes like age arrive as integers; the cube needs
// categorical values ("15-38", "39-46", ...). Mirrors the age bins visible
// in the paper's finalTable example (Fig. 3). A table's schema is fixed
// when it is built, so a producer bins each value with LabelOf before it
// appends the row (datagen's age_bin column).

#ifndef SCUBE_RELATIONAL_BINNING_H_
#define SCUBE_RELATIONAL_BINNING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace scube {
namespace relational {

/// \brief Maps numeric values into labelled bins.
class Binner {
 public:
  /// Bins defined by explicit right-open edges: values in [edges[i],
  /// edges[i+1]) get label "edges[i]-(edges[i+1]-1)". Values below the first
  /// edge / at-or-above the last go to "<lo" / ">=hi" overflow bins.
  static Result<Binner> FromEdges(std::vector<int64_t> edges);

  /// Bin label of a single value.
  std::string LabelOf(int64_t value) const;

  size_t NumBins() const { return edges_.size() - 1; }

 private:
  explicit Binner(std::vector<int64_t> edges);
  std::vector<int64_t> edges_;  // size >= 2, strictly increasing
};

}  // namespace relational
}  // namespace scube

#endif  // SCUBE_RELATIONAL_BINNING_H_
