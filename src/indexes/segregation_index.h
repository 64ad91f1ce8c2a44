// The six segregation indexes computed by SCube (paper §2):
// Dissimilarity, Gini, Information (Theil's H), Isolation, Interaction,
// Atkinson. Definitions follow Massey & Denton, "The dimensions of
// residential segregation", Social Forces 67(2), 1988.
//
// All indexes take per-unit counts (t_i, m_i) with totals T and M:
//
//   Dissimilarity  D = 1/2 * sum_i | m_i/M - (t_i-m_i)/(T-M) |
//   Gini           G = sum_{i,j} t_i t_j |p_i - p_j| / (2 T^2 P(1-P))
//   Information    H = sum_i t_i (E - E_i) / (T E)
//                      E = -P ln P - (1-P) ln(1-P), E_i likewise with p_i
//   Isolation      xPx = sum_i (m_i/M)(m_i/t_i)
//   Interaction    xPy = sum_i (m_i/M)((t_i-m_i)/t_i)
//   Atkinson(b)    A = 1 - P/(1-P) * [ sum_i (1-p_i)^(1-b) p_i^b t_i / (PT)
//                      ]^(1/(1-b)),  b in (0,1)
//
// where p_i = m_i/t_i and P = M/T. Evenness indexes (D, G, H, A) and
// Isolation grow with segregation; Interaction = 1 - Isolation shrinks.
// Every index is undefined (error) when T = 0, M = 0 or M = T.
//
// One kernel computes all six in a single pass over the units, in unit
// order, checking m_i <= t_i as it goes; every entry point returns its
// value for one kind. The per-unit terms that depend only on (m_i, t_i)
// (p_i, (t_i-m_i)/t_i, E_i, the Atkinson product and p_i's rank in Gini's
// order) come from a UnitTermTable when t_i is within it, else they are
// computed directly. Both give the same bits: the table memoises the very
// expressions the direct path evaluates, and every sum adds the same terms
// in the same order.

#ifndef SCUBE_INDEXES_SEGREGATION_INDEX_H_
#define SCUBE_INDEXES_SEGREGATION_INDEX_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "indexes/counts.h"

namespace scube {
namespace indexes {

/// The indexes SCube computes (paper §2 lists exactly these six).
enum class IndexKind {
  kDissimilarity = 0,
  kGini = 1,
  kInformation = 2,
  kIsolation = 3,
  kInteraction = 4,
  kAtkinson = 5,
};

inline constexpr size_t kNumIndexKinds = 6;

/// All six kinds, in enum order.
const std::array<IndexKind, kNumIndexKinds>& AllIndexKinds();

/// Stable lowercase name ("dissimilarity", ...).
const char* IndexKindToString(IndexKind kind);

/// Parses an index name; NotFound on unknown names.
Result<IndexKind> IndexKindFromString(const std::string& name);

/// \brief Computation parameters (only Atkinson is parametric).
struct IndexParams {
  /// Atkinson shape parameter b in (0,1); 0.5 is the symmetric default.
  double atkinson_b = 0.5;
};

/// Computes one index; FailedPrecondition when the distribution is
/// degenerate (T = 0, M = 0 or M = T), InvalidArgument on broken counts or,
/// for Atkinson, on b outside (0,1).
Result<double> ComputeIndex(IndexKind kind, const GroupDistribution& dist,
                            const IndexParams& params = IndexParams());

// Direct entry points (same contract as ComputeIndex).
Result<double> Dissimilarity(const GroupDistribution& dist);
Result<double> Gini(const GroupDistribution& dist);
Result<double> Information(const GroupDistribution& dist);
Result<double> Isolation(const GroupDistribution& dist);
Result<double> Interaction(const GroupDistribution& dist);
Result<double> Atkinson(const GroupDistribution& dist, double b = 0.5);

/// \brief All six index values for one distribution (one cube-cell payload).
struct IndexVector {
  std::array<double, kNumIndexKinds> values{};
  bool defined = false;

  double operator[](IndexKind kind) const {
    return values[static_cast<size_t>(kind)];
  }
};

/// \brief The terms of every unit with 0 < m <= t <= max_total(), for one
/// Atkinson parameter. Immutable once built, so fill workers share one.
class UnitTermTable {
 public:
  /// The largest unit size a table covers. Units of real cube cells are
  /// small (the largest perfbench unit has 51 members, the median 2); at
  /// this bound the table holds 32,896 entries, about 1.8 MB.
  static constexpr uint64_t kMaxTotalBound = 256;

  /// Terms of one (m, t) unit.
  struct Terms {
    double p;          // m / t
    double q;          // (t - m) / t
    double entropy;    // E(p)
    double atkinson;   // (1-p)^(1-b) * p^b
    uint32_t rank;     // position of (p, t) in ascending (p, t) order
  };

  /// Covers units of up to min(max_total, kMaxTotalBound) members; 0 builds
  /// an empty table, with which every unit takes the direct path.
  /// InvalidArgument unless b is in (0,1).
  static Result<UnitTermTable> Build(uint64_t max_total,
                                     const IndexParams& params);

  double atkinson_b() const { return b_; }
  uint64_t max_total() const { return max_total_; }

  /// The entry of a unit with 0 < m <= t <= max_total().
  const Terms& At(uint64_t t, uint64_t m) const {
    return terms_[t * (t - 1) / 2 + (m - 1)];
  }

  /// (p, t) of the entry with the given rank.
  const std::pair<double, double>& ByRank(uint32_t rank) const {
    return by_rank_[rank];
  }

 private:
  UnitTermTable(double b, uint64_t max_total) : b_(b), max_total_(max_total) {}

  double b_;
  uint64_t max_total_;
  std::vector<Terms> terms_;                        // row t: m = 1..t
  std::vector<std::pair<double, double>> by_rank_;  // (p, t) ascending
};

/// \brief Reusable buffers of ComputeAllIndexes (Gini's ordering). A fill
/// worker keeps one, so the kernel allocates nothing once they have grown.
struct IndexScratch {
  std::vector<uint32_t> ranks;                     // units inside the table
  std::vector<std::pair<double, double>> direct;   // (p, t) of the others
};

/// Computes all six. `defined` is false when the distribution is
/// degenerate; InvalidArgument on broken counts or b outside (0,1).
Result<IndexVector> ComputeAllIndexes(const GroupDistribution& dist,
                                      const IndexParams& params =
                                          IndexParams());

/// The kernel behind every entry point: one pass over the units, with the
/// per-unit terms from `terms` where t_i <= terms.max_total(). Same values,
/// bit for bit, for every table of the same b.
Result<IndexVector> ComputeAllIndexes(const GroupDistribution& dist,
                                      const UnitTermTable& terms,
                                      IndexScratch* scratch);

}  // namespace indexes
}  // namespace scube

#endif  // SCUBE_INDEXES_SEGREGATION_INDEX_H_
