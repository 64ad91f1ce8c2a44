#include "indexes/segregation_index.h"

#include <algorithm>
#include <cmath>

namespace scube {
namespace indexes {

const std::array<IndexKind, kNumIndexKinds>& AllIndexKinds() {
  static const std::array<IndexKind, kNumIndexKinds> kAll = {
      IndexKind::kDissimilarity, IndexKind::kGini, IndexKind::kInformation,
      IndexKind::kIsolation,     IndexKind::kInteraction,
      IndexKind::kAtkinson,
  };
  return kAll;
}

const char* IndexKindToString(IndexKind kind) {
  switch (kind) {
    case IndexKind::kDissimilarity:
      return "dissimilarity";
    case IndexKind::kGini:
      return "gini";
    case IndexKind::kInformation:
      return "information";
    case IndexKind::kIsolation:
      return "isolation";
    case IndexKind::kInteraction:
      return "interaction";
    case IndexKind::kAtkinson:
      return "atkinson";
  }
  return "?";
}

Result<IndexKind> IndexKindFromString(const std::string& name) {
  for (IndexKind kind : AllIndexKinds()) {
    if (name == IndexKindToString(kind)) return kind;
  }
  return Status::NotFound("unknown segregation index: " + name);
}

namespace {

Status CheckComputable(const GroupDistribution& dist) {
  SCUBE_RETURN_IF_ERROR(dist.Validate());
  if (dist.Total() == 0) {
    return Status::FailedPrecondition("empty population (T = 0)");
  }
  if (dist.Minority() == 0) {
    return Status::FailedPrecondition("empty minority group (M = 0)");
  }
  if (dist.Minority() == dist.Total()) {
    return Status::FailedPrecondition("minority equals population (M = T)");
  }
  return Status::OK();
}

double EntropyOf(double p) {
  // Binary entropy in nats with the 0*ln(0) = 0 convention.
  double e = 0.0;
  if (p > 0.0) e -= p * std::log(p);
  if (p < 1.0) e -= (1.0 - p) * std::log(1.0 - p);
  return e;
}

// Unchecked bodies, shared by the public entry points and
// ComputeAllIndexes; callers have run CheckComputable. Every sum runs in
// unit order. A unit with m_i = 0 takes its exact term without log, pow or
// sort (most units of a cube cell hold no minority member), so each value
// is bit-identical to evaluating the formula for every unit.

double DissimilarityOf(const GroupDistribution& dist) {
  const double m_total = static_cast<double>(dist.Minority());
  const double maj_total = static_cast<double>(dist.Total() - dist.Minority());
  double sum = 0.0;
  for (size_t i = 0; i < dist.NumUnits(); ++i) {
    double mi = static_cast<double>(dist.UnitMinority(i));
    double oi = static_cast<double>(dist.UnitTotal(i) - dist.UnitMinority(i));
    sum += std::fabs(mi / m_total - oi / maj_total);
  }
  return 0.5 * sum;
}

double GiniOf(const GroupDistribution& dist) {
  // O(n log n): sort units by p_i; then
  //   sum_{i,j} t_i t_j |p_i - p_j| = 2 * sum_j t_j * (p_j * S_t - S_tp)
  // over the prefix before j in sorted order. Units with p_i = 0 sort
  // first and add nothing but their t_i to S_t, an exact integer sum, so
  // only units with m_i > 0 are sorted.
  uint64_t zero_block_t = 0;
  std::vector<std::pair<double, double>> units;  // (p_i, t_i), m_i > 0
  units.reserve(dist.NumUnits());
  for (size_t i = 0; i < dist.NumUnits(); ++i) {
    if (dist.UnitMinority(i) == 0) {
      zero_block_t += dist.UnitTotal(i);
      continue;
    }
    double ti = static_cast<double>(dist.UnitTotal(i));
    units.emplace_back(static_cast<double>(dist.UnitMinority(i)) / ti, ti);
  }
  std::sort(units.begin(), units.end());
  double prefix_t = static_cast<double>(zero_block_t), prefix_tp = 0.0,
         pair_sum = 0.0;
  for (const auto& [p, t] : units) {
    pair_sum += t * (p * prefix_t - prefix_tp);
    prefix_t += t;
    prefix_tp += t * p;
  }
  pair_sum *= 2.0;
  double total = static_cast<double>(dist.Total());
  double prop = dist.MinorityProportion();
  return pair_sum / (2.0 * total * total * prop * (1.0 - prop));
}

double InformationOf(const GroupDistribution& dist) {
  double entropy = EntropyOf(dist.MinorityProportion());
  double total = static_cast<double>(dist.Total());
  double sum = 0.0;
  for (size_t i = 0; i < dist.NumUnits(); ++i) {
    double ti = static_cast<double>(dist.UnitTotal(i));
    if (dist.UnitMinority(i) == 0) {
      sum += ti * entropy;  // E_i = 0 (and an empty unit adds +0.0)
      continue;
    }
    double pi = static_cast<double>(dist.UnitMinority(i)) / ti;
    sum += ti * (entropy - EntropyOf(pi));
  }
  return sum / (total * entropy);
}

double IsolationOf(const GroupDistribution& dist) {
  double m_total = static_cast<double>(dist.Minority());
  double sum = 0.0;
  for (size_t i = 0; i < dist.NumUnits(); ++i) {
    if (dist.UnitMinority(i) == 0) continue;  // term 0
    double ti = static_cast<double>(dist.UnitTotal(i));
    double mi = static_cast<double>(dist.UnitMinority(i));
    sum += (mi / m_total) * (mi / ti);
  }
  return sum;
}

double InteractionOf(const GroupDistribution& dist) {
  double m_total = static_cast<double>(dist.Minority());
  double sum = 0.0;
  for (size_t i = 0; i < dist.NumUnits(); ++i) {
    if (dist.UnitMinority(i) == 0) continue;  // term 0
    double ti = static_cast<double>(dist.UnitTotal(i));
    double mi = static_cast<double>(dist.UnitMinority(i));
    sum += (mi / m_total) * ((ti - mi) / ti);
  }
  return sum;
}

Status CheckAtkinsonParameter(double b) {
  if (b <= 0.0 || b >= 1.0) {
    return Status::InvalidArgument("Atkinson parameter b must be in (0,1)");
  }
  return Status::OK();
}

double AtkinsonOf(const GroupDistribution& dist, double b) {
  double total = static_cast<double>(dist.Total());
  double prop = dist.MinorityProportion();
  double sum = 0.0;
  for (size_t i = 0; i < dist.NumUnits(); ++i) {
    if (dist.UnitMinority(i) == 0) continue;  // p_i^b = 0
    double ti = static_cast<double>(dist.UnitTotal(i));
    double pi = static_cast<double>(dist.UnitMinority(i)) / ti;
    sum += std::pow(1.0 - pi, 1.0 - b) * std::pow(pi, b) * ti;
  }
  double inner = sum / (prop * total);
  return 1.0 - (prop / (1.0 - prop)) * std::pow(inner, 1.0 / (1.0 - b));
}

}  // namespace

Result<double> Dissimilarity(const GroupDistribution& dist) {
  SCUBE_RETURN_IF_ERROR(CheckComputable(dist));
  return DissimilarityOf(dist);
}

Result<double> Gini(const GroupDistribution& dist) {
  SCUBE_RETURN_IF_ERROR(CheckComputable(dist));
  return GiniOf(dist);
}

Result<double> GiniQuadraticReference(const GroupDistribution& dist) {
  SCUBE_RETURN_IF_ERROR(CheckComputable(dist));
  double sum = 0.0;
  for (size_t i = 0; i < dist.NumUnits(); ++i) {
    double ti = static_cast<double>(dist.UnitTotal(i));
    if (ti == 0.0) continue;
    double pi = static_cast<double>(dist.UnitMinority(i)) / ti;
    for (size_t j = 0; j < dist.NumUnits(); ++j) {
      double tj = static_cast<double>(dist.UnitTotal(j));
      if (tj == 0.0) continue;
      double pj = static_cast<double>(dist.UnitMinority(j)) / tj;
      sum += ti * tj * std::fabs(pi - pj);
    }
  }
  double total = static_cast<double>(dist.Total());
  double prop = dist.MinorityProportion();
  return sum / (2.0 * total * total * prop * (1.0 - prop));
}

Result<double> Information(const GroupDistribution& dist) {
  SCUBE_RETURN_IF_ERROR(CheckComputable(dist));
  return InformationOf(dist);
}

Result<double> Isolation(const GroupDistribution& dist) {
  SCUBE_RETURN_IF_ERROR(CheckComputable(dist));
  return IsolationOf(dist);
}

Result<double> Interaction(const GroupDistribution& dist) {
  SCUBE_RETURN_IF_ERROR(CheckComputable(dist));
  return InteractionOf(dist);
}

Result<double> Atkinson(const GroupDistribution& dist, double b) {
  SCUBE_RETURN_IF_ERROR(CheckComputable(dist));
  SCUBE_RETURN_IF_ERROR(CheckAtkinsonParameter(b));
  return AtkinsonOf(dist, b);
}

Result<double> ComputeIndex(IndexKind kind, const GroupDistribution& dist,
                            const IndexParams& params) {
  switch (kind) {
    case IndexKind::kDissimilarity:
      return Dissimilarity(dist);
    case IndexKind::kGini:
      return Gini(dist);
    case IndexKind::kInformation:
      return Information(dist);
    case IndexKind::kIsolation:
      return Isolation(dist);
    case IndexKind::kInteraction:
      return Interaction(dist);
    case IndexKind::kAtkinson:
      return Atkinson(dist, params.atkinson_b);
  }
  return Status::Internal("unreachable index kind");
}

Result<IndexVector> ComputeAllIndexes(const GroupDistribution& dist,
                                      const IndexParams& params) {
  SCUBE_RETURN_IF_ERROR(dist.Validate());
  IndexVector out;
  if (dist.IsDegenerate()) {
    out.defined = false;
    return out;
  }
  SCUBE_RETURN_IF_ERROR(CheckAtkinsonParameter(params.atkinson_b));
  // IndexKind order.
  out.values = {DissimilarityOf(dist), GiniOf(dist),
                InformationOf(dist),   IsolationOf(dist),
                InteractionOf(dist),   AtkinsonOf(dist, params.atkinson_b)};
  out.defined = true;
  return out;
}

}  // namespace indexes
}  // namespace scube
