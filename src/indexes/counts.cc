#include "indexes/counts.h"

namespace scube {
namespace indexes {

GroupDistribution GroupDistribution::FromVectors(
    const std::vector<uint64_t>& totals,
    const std::vector<uint64_t>& minorities) {
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
  for (size_t i = 0; i < totals_.size(); ++i) {
    if (minorities_[i] > totals_[i]) {
      return Status::InvalidArgument(
          "unit " + std::to_string(i) + " has minority " +
          std::to_string(minorities_[i]) + " > total " +
          std::to_string(totals_[i]));
    }
  }
  return Status::OK();
}

bool GroupDistribution::IsDegenerate() const {
  return total_ == 0 || minority_ == 0 || minority_ == total_;
}

}  // namespace indexes
}  // namespace scube
