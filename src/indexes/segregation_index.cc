#include "indexes/segregation_index.h"

#include <algorithm>
#include <cmath>
#include <tuple>

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

// The status of a degenerate distribution (T = 0, M = 0 or M = T).
Status DegenerateStatus(const GroupDistribution& dist) {
  if (dist.Total() == 0) {
    return Status::FailedPrecondition("empty population (T = 0)");
  }
  if (dist.Minority() == 0) {
    return Status::FailedPrecondition("empty minority group (M = 0)");
  }
  return Status::FailedPrecondition("minority equals population (M = T)");
}

Status CheckAtkinsonParameter(double b) {
  if (!(b > 0.0 && b < 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("Atkinson parameter b must be in (0,1)");
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

// The per-unit terms of a unit with 0 < m <= t. The table stores exactly
// these values, so both paths give the same bits.
UnitTermTable::Terms DirectTerms(uint64_t t, uint64_t m, double b) {
  const double ti = static_cast<double>(t);
  const double mi = static_cast<double>(m);
  const double p = mi / ti;
  return {p, (ti - mi) / ti, EntropyOf(p),
          std::pow(1.0 - p, 1.0 - b) * std::pow(p, b), 0};
}

}  // namespace

Result<UnitTermTable> UnitTermTable::Build(uint64_t max_total,
                                           const IndexParams& params) {
  SCUBE_RETURN_IF_ERROR(CheckAtkinsonParameter(params.atkinson_b));
  UnitTermTable table(params.atkinson_b, std::min(max_total, kMaxTotalBound));
  const uint64_t n = table.max_total_;
  std::vector<std::tuple<double, double, uint32_t>> order;  // (p, t, entry)
  order.reserve(n * (n + 1) / 2);
  table.terms_.reserve(n * (n + 1) / 2);
  for (uint64_t t = 1; t <= n; ++t) {
    for (uint64_t m = 1; m <= t; ++m) {
      table.terms_.push_back(DirectTerms(t, m, table.b_));
      order.emplace_back(table.terms_.back().p, static_cast<double>(t),
                         static_cast<uint32_t>(table.terms_.size() - 1));
    }
  }
  // Every (p, t) is distinct (for one t, p grows with m), so sorting the
  // units' ranks sorts them by (p, t).
  std::sort(order.begin(), order.end());
  table.by_rank_.reserve(order.size());
  for (const auto& [p, t, entry] : order) {
    table.terms_[entry].rank = static_cast<uint32_t>(table.by_rank_.size());
    table.by_rank_.emplace_back(p, t);
  }
  return table;
}

Result<IndexVector> ComputeAllIndexes(const GroupDistribution& dist,
                                      const UnitTermTable& terms,
                                      IndexScratch* scratch) {
  IndexVector out;
  if (dist.IsDegenerate()) {
    SCUBE_RETURN_IF_ERROR(dist.Validate());
    out.defined = false;
    return out;
  }
  const double b = terms.atkinson_b();
  const double total = static_cast<double>(dist.Total());
  const double m_total = static_cast<double>(dist.Minority());
  const double maj_total = static_cast<double>(dist.Total() - dist.Minority());
  const double prop = dist.MinorityProportion();
  const double entropy = EntropyOf(prop);

  // One accumulator per index; each adds its terms in unit order except
  // Gini's, which are added below in ascending (p_i, t_i) order. A unit
  // with m_i = 0 takes its exact terms without the table: |0/M - t_i/(T-M)|
  // = t_i/(T-M), E_i = 0, and 0 for Isolation, Interaction and Atkinson;
  // for Gini it sorts first and adds only t_i to the prefix, an exact
  // integer sum. (Most units of a cube cell hold no minority member.)
  double dis_sum = 0.0, inf_sum = 0.0, iso_sum = 0.0, int_sum = 0.0,
         atk_sum = 0.0;
  uint64_t zero_block_t = 0;
  scratch->ranks.clear();
  scratch->direct.clear();
  for (size_t i = 0; i < dist.NumUnits(); ++i) {
    const uint64_t t = dist.UnitTotal(i);
    const uint64_t m = dist.UnitMinority(i);
    const double ti = static_cast<double>(t);
    if (m == 0) {
      dis_sum += ti / maj_total;
      inf_sum += ti * entropy;  // an empty unit adds +0.0
      zero_block_t += t;
      continue;
    }
    if (m > t) return dist.Validate();  // names the first broken unit
    const double mi = static_cast<double>(m);
    const double share = mi / m_total;
    dis_sum += std::fabs(share - static_cast<double>(t - m) / maj_total);
    auto add_terms = [&](const UnitTermTable::Terms& u) {
      inf_sum += ti * (entropy - u.entropy);
      iso_sum += share * u.p;
      int_sum += share * u.q;
      atk_sum += u.atkinson * ti;
    };
    if (t <= terms.max_total()) {
      const UnitTermTable::Terms& u = terms.At(t, m);
      scratch->ranks.push_back(u.rank);
      add_terms(u);
    } else {
      const UnitTermTable::Terms u = DirectTerms(t, m, b);
      scratch->direct.emplace_back(u.p, ti);
      add_terms(u);
    }
  }

  // Gini in O(n log n): over the units in ascending (p_i, t_i) order,
  //   sum_{i,j} t_i t_j |p_i - p_j| = 2 * sum_j t_j * (p_j * S_t - S_tp)
  // with S_t, S_tp the sums over the units before j. The table's units
  // sort as ranks; the others sort as (p, t) and merge in.
  std::sort(scratch->ranks.begin(), scratch->ranks.end());
  std::sort(scratch->direct.begin(), scratch->direct.end());
  double prefix_t = static_cast<double>(zero_block_t), prefix_tp = 0.0,
         pair_sum = 0.0;
  auto add = [&](const std::pair<double, double>& unit) {
    const auto [p, t] = unit;
    pair_sum += t * (p * prefix_t - prefix_tp);
    prefix_t += t;
    prefix_tp += t * p;
  };
  auto direct_it = scratch->direct.begin();
  for (uint32_t rank : scratch->ranks) {
    const std::pair<double, double>& unit = terms.ByRank(rank);
    for (; direct_it != scratch->direct.end() && *direct_it < unit;
         ++direct_it) {
      add(*direct_it);
    }
    add(unit);
  }
  for (; direct_it != scratch->direct.end(); ++direct_it) add(*direct_it);
  pair_sum *= 2.0;

  // IndexKind order.
  out.values = {
      0.5 * dis_sum,
      pair_sum / (2.0 * total * total * prop * (1.0 - prop)),
      inf_sum / (total * entropy),
      iso_sum,
      int_sum,
      1.0 - (prop / (1.0 - prop)) *
                std::pow(atk_sum / (prop * total), 1.0 / (1.0 - b)),
  };
  out.defined = true;
  return out;
}

Result<IndexVector> ComputeAllIndexes(const GroupDistribution& dist,
                                      const IndexParams& params) {
  auto terms = UnitTermTable::Build(0, params);
  if (!terms.ok()) {
    // Broken counts outrank a bad b, and a degenerate cell needs no b.
    SCUBE_RETURN_IF_ERROR(dist.Validate());
    if (dist.IsDegenerate()) return IndexVector{};
    return terms.status();
  }
  IndexScratch scratch;
  scratch.direct.reserve(dist.NumUnits());  // every unit takes the direct path
  return ComputeAllIndexes(dist, terms.value(), &scratch);
}

Result<double> Dissimilarity(const GroupDistribution& dist) {
  return ComputeIndex(IndexKind::kDissimilarity, dist);
}

Result<double> Gini(const GroupDistribution& dist) {
  return ComputeIndex(IndexKind::kGini, dist);
}

Result<double> Information(const GroupDistribution& dist) {
  return ComputeIndex(IndexKind::kInformation, dist);
}

Result<double> Isolation(const GroupDistribution& dist) {
  return ComputeIndex(IndexKind::kIsolation, dist);
}

Result<double> Interaction(const GroupDistribution& dist) {
  return ComputeIndex(IndexKind::kInteraction, dist);
}

Result<double> Atkinson(const GroupDistribution& dist, double b) {
  IndexParams params;
  params.atkinson_b = b;
  return ComputeIndex(IndexKind::kAtkinson, dist, params);
}

Result<double> ComputeIndex(IndexKind kind, const GroupDistribution& dist,
                            const IndexParams& params) {
  // b shapes Atkinson only; the other kinds ignore a bad one.
  auto all = ComputeAllIndexes(
      dist, kind == IndexKind::kAtkinson ? params : IndexParams());
  if (!all.ok()) return all.status();
  if (!all->defined) return DegenerateStatus(dist);
  return (*all)[kind];
}

}  // namespace indexes
}  // namespace scube
