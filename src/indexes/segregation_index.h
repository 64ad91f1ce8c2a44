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

#ifndef SCUBE_INDEXES_SEGREGATION_INDEX_H_
#define SCUBE_INDEXES_SEGREGATION_INDEX_H_

#include <array>
#include <string>
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
/// degenerate (T = 0, M = 0 or M = T), InvalidArgument on broken counts.
Result<double> ComputeIndex(IndexKind kind, const GroupDistribution& dist,
                            const IndexParams& params = IndexParams());

// Direct entry points (same contract as ComputeIndex).
Result<double> Dissimilarity(const GroupDistribution& dist);
Result<double> Gini(const GroupDistribution& dist);
Result<double> Information(const GroupDistribution& dist);
Result<double> Isolation(const GroupDistribution& dist);
Result<double> Interaction(const GroupDistribution& dist);
Result<double> Atkinson(const GroupDistribution& dist, double b = 0.5);

/// O(n^2) reference Gini used by tests to validate the O(n log n) version.
Result<double> GiniQuadraticReference(const GroupDistribution& dist);

/// \brief All six index values for one distribution (one cube-cell payload).
struct IndexVector {
  std::array<double, kNumIndexKinds> values{};
  bool defined = false;

  double operator[](IndexKind kind) const {
    return values[static_cast<size_t>(kind)];
  }
};

/// Computes all six: validates the counts once, then runs the same bodies
/// the entry points above use, one pass per index. `defined` is false when
/// the distribution is degenerate.
Result<IndexVector> ComputeAllIndexes(const GroupDistribution& dist,
                                      const IndexParams& params =
                                          IndexParams());

}  // namespace indexes
}  // namespace scube

#endif  // SCUBE_INDEXES_SEGREGATION_INDEX_H_
