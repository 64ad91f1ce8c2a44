#include "relational/binning.h"

#include <algorithm>

namespace scube {
namespace relational {

Binner::Binner(std::vector<int64_t> edges) : edges_(std::move(edges)) {}

Result<Binner> Binner::FromEdges(std::vector<int64_t> edges) {
  if (edges.size() < 2) {
    return Status::InvalidArgument("binner needs at least two edges");
  }
  for (size_t i = 1; i < edges.size(); ++i) {
    if (edges[i] <= edges[i - 1]) {
      return Status::InvalidArgument("bin edges must be strictly increasing");
    }
  }
  return Binner(std::move(edges));
}

std::string Binner::LabelOf(int64_t value) const {
  if (value < edges_.front()) {
    std::string out = "<";
    out += std::to_string(edges_.front());
    return out;
  }
  if (value >= edges_.back()) {
    std::string out = ">=";
    out += std::to_string(edges_.back());
    return out;
  }
  auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
  size_t bin = static_cast<size_t>(it - edges_.begin()) - 1;
  std::string out = std::to_string(edges_[bin]);
  out += "-";
  out += std::to_string(edges_[bin + 1] - 1);
  return out;
}

}  // namespace relational
}  // namespace scube
