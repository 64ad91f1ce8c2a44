// GroupDistribution: per-unit population/minority counts, the common input
// of every segregation index.
//
// Notation follows the paper (§2): T = total population, 0 < M < T the
// minority size, n organisational units, t_i the unit-i population and m_i
// the unit-i minority count, P = M/T.
//
// The cube fill refills one GroupDistribution per worker for every cell
// (Clear, then AddUnit per unit), so both are inline and keep capacity.

#ifndef SCUBE_INDEXES_COUNTS_H_
#define SCUBE_INDEXES_COUNTS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace scube {
namespace indexes {

/// \brief Per-unit (t_i, m_i) counts for one cube cell.
class GroupDistribution {
 public:
  GroupDistribution() = default;

  /// Appends a unit with `total` members of which `minority` are minority.
  /// Units with total == 0 may be added; they are ignored by all indexes.
  void AddUnit(uint64_t total, uint64_t minority) {
    totals_.push_back(total);
    minorities_.push_back(minority);
    total_ += total;
    minority_ += minority;
  }

  /// Removes every unit; keeps the allocated capacity for reuse.
  void Clear() {
    totals_.clear();
    minorities_.clear();
    total_ = 0;
    minority_ = 0;
  }

  /// Convenience: builds from parallel vectors.
  static GroupDistribution FromVectors(const std::vector<uint64_t>& totals,
                                       const std::vector<uint64_t>& minorities);

  size_t NumUnits() const { return totals_.size(); }
  uint64_t UnitTotal(size_t i) const { return totals_[i]; }
  uint64_t UnitMinority(size_t i) const { return minorities_[i]; }

  /// T: total population over all units.
  uint64_t Total() const { return total_; }

  /// M: total minority over all units.
  uint64_t Minority() const { return minority_; }

  /// P = M/T (0 when T == 0).
  double MinorityProportion() const;

  /// Checks structural invariants: m_i <= t_i for every unit; the error
  /// names the first unit that breaks them. (ComputeAllIndexes makes the
  /// same check inside its one pass and calls this only to report.)
  Status Validate() const;

  /// True iff a segregation index is well defined: T > 0, 0 < M < T, and at
  /// least one non-empty unit.
  bool IsDegenerate() const;

 private:
  std::vector<uint64_t> totals_;
  std::vector<uint64_t> minorities_;
  uint64_t total_ = 0;
  uint64_t minority_ = 0;
};

}  // namespace indexes
}  // namespace scube

#endif  // SCUBE_INDEXES_COUNTS_H_
