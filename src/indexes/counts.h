// GroupDistribution: per-unit population/minority counts, the common input
// of every segregation index.
//
// Notation follows the paper (§2): T = total population, 0 < M < T the
// minority size, n organisational units, t_i the unit-i population and m_i
// the unit-i minority count, P = M/T.
//
// The index kernel reads the units as two parallel 32-bit spans plus T and
// M (indexes::ComputeAllIndexes). The cube fill passes its own per-worker
// arrays; GroupDistribution builds the same spans for callers that hold
// one distribution at a time (significance tests, examples, tests).

#ifndef SCUBE_INDEXES_COUNTS_H_
#define SCUBE_INDEXES_COUNTS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace scube {
namespace indexes {

/// Checks m_i <= t_i for every unit of two parallel spans; the error names
/// the first unit that breaks it.
Status ValidateUnitCounts(std::span<const uint32_t> totals,
                          std::span<const uint32_t> minorities);

/// True iff a segregation index is undefined for totals T and M: T = 0,
/// M = 0 or M = T.
inline bool IsDegenerate(uint64_t total, uint64_t minority) {
  return total == 0 || minority == 0 || minority == total;
}

/// \brief Per-unit (t_i, m_i) counts for one cube cell.
class GroupDistribution {
 public:
  GroupDistribution() = default;

  /// Appends a unit with `total` members of which `minority` are minority.
  /// Units with total == 0 may be added; they are ignored by all indexes.
  void AddUnit(uint32_t total, uint32_t minority) {
    totals_.push_back(total);
    minorities_.push_back(minority);
    total_ += total;
    minority_ += minority;
  }

  /// Convenience: builds from parallel vectors.
  static GroupDistribution FromVectors(const std::vector<uint32_t>& totals,
                                       const std::vector<uint32_t>& minorities);

  size_t NumUnits() const { return totals_.size(); }
  uint32_t UnitTotal(size_t i) const { return totals_[i]; }
  uint32_t UnitMinority(size_t i) const { return minorities_[i]; }

  /// t_i and m_i of every unit, in unit order.
  std::span<const uint32_t> UnitTotals() const { return totals_; }
  std::span<const uint32_t> UnitMinorities() const { return minorities_; }

  /// T: total population over all units.
  uint64_t Total() const { return total_; }

  /// M: total minority over all units.
  uint64_t Minority() const { return minority_; }

  /// P = M/T (0 when T == 0).
  double MinorityProportion() const;

  /// Checks structural invariants: m_i <= t_i for every unit; the error
  /// names the first unit that breaks them (ValidateUnitCounts, which
  /// ComputeAllIndexes also reports).
  Status Validate() const;

  /// True iff no segregation index is defined: T = 0, M = 0 or M = T.
  bool IsDegenerate() const {
    return indexes::IsDegenerate(total_, minority_);
  }

 private:
  std::vector<uint32_t> totals_;
  std::vector<uint32_t> minorities_;
  uint64_t total_ = 0;
  uint64_t minority_ = 0;
};

}  // namespace indexes
}  // namespace scube

#endif  // SCUBE_INDEXES_COUNTS_H_
