#include "indexes/counts.h"

#include <string>

namespace scube {
namespace indexes {

Status ValidateUnitCounts(std::span<const uint32_t> totals,
                          std::span<const uint32_t> minorities) {
  for (size_t i = 0; i < totals.size(); ++i) {
    if (minorities[i] > totals[i]) {
      return Status::InvalidArgument(
          "unit " + std::to_string(i) + " has minority " +
          std::to_string(minorities[i]) + " > total " +
          std::to_string(totals[i]));
    }
  }
  return Status::OK();
}

GroupDistribution GroupDistribution::FromVectors(
    const std::vector<uint32_t>& totals,
    const std::vector<uint32_t>& minorities) {
  GroupDistribution d;
  size_t n = totals.size() < minorities.size() ? totals.size()
                                               : minorities.size();
  for (size_t i = 0; i < n; ++i) d.AddUnit(totals[i], minorities[i]);
  return d;
}

double GroupDistribution::MinorityProportion() const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(minority_) / static_cast<double>(total_);
}

Status GroupDistribution::Validate() const {
  return ValidateUnitCounts(totals_, minorities_);
}

}  // namespace indexes
}  // namespace scube
