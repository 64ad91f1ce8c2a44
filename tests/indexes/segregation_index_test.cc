#include "indexes/segregation_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace scube {
namespace indexes {
namespace {

constexpr double kTol = 1e-9;

GroupDistribution CompleteSegregation() {
  // Every unit single-group: the textbook maximum.
  return GroupDistribution::FromVectors({10, 10}, {10, 0});
}

GroupDistribution PerfectlyUniform() {
  // Every unit mirrors the global proportion: the textbook minimum.
  return GroupDistribution::FromVectors({10, 30}, {5, 15});
}

GroupDistribution HandAnchor() {
  // T=20, M=8, p_1=0.75, p_2=1/6 — values computed by hand (see asserts).
  return GroupDistribution::FromVectors({8, 12}, {6, 2});
}

TEST(IndexKindTest, NamesRoundTrip) {
  for (IndexKind kind : AllIndexKinds()) {
    auto back = IndexKindFromString(IndexKindToString(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), kind);
  }
  EXPECT_FALSE(IndexKindFromString("entropy-ish").ok());
}

TEST(DissimilarityTest, Extremes) {
  EXPECT_NEAR(Dissimilarity(CompleteSegregation()).value(), 1.0, kTol);
  EXPECT_NEAR(Dissimilarity(PerfectlyUniform()).value(), 0.0, kTol);
}

TEST(DissimilarityTest, HandAnchor) {
  EXPECT_NEAR(Dissimilarity(HandAnchor()).value(), 0.5833333333, 1e-9);
}

TEST(GiniTest, Extremes) {
  EXPECT_NEAR(Gini(CompleteSegregation()).value(), 1.0, kTol);
  EXPECT_NEAR(Gini(PerfectlyUniform()).value(), 0.0, kTol);
}

TEST(GiniTest, HandAnchor) {
  EXPECT_NEAR(Gini(HandAnchor()).value(), 0.5833333333, 1e-9);
}

TEST(InformationTest, Extremes) {
  EXPECT_NEAR(Information(CompleteSegregation()).value(), 1.0, kTol);
  EXPECT_NEAR(Information(PerfectlyUniform()).value(), 0.0, kTol);
}

TEST(InformationTest, HandAnchor) {
  EXPECT_NEAR(Information(HandAnchor()).value(), 0.2640978, 1e-6);
}

TEST(IsolationInteractionTest, ExtremesAndAnchor) {
  EXPECT_NEAR(Isolation(CompleteSegregation()).value(), 1.0, kTol);
  EXPECT_NEAR(Interaction(CompleteSegregation()).value(), 0.0, kTol);
  // Under evenness, isolation equals the global proportion P.
  EXPECT_NEAR(Isolation(PerfectlyUniform()).value(), 0.5, kTol);
  EXPECT_NEAR(Isolation(HandAnchor()).value(), 0.6041666667, 1e-9);
  EXPECT_NEAR(Interaction(HandAnchor()).value(), 0.3958333333, 1e-9);
}

TEST(AtkinsonTest, ExtremesAndAnchor) {
  EXPECT_NEAR(Atkinson(CompleteSegregation()).value(), 1.0, kTol);
  EXPECT_NEAR(Atkinson(PerfectlyUniform()).value(), 0.0, kTol);
  EXPECT_NEAR(Atkinson(HandAnchor()).value(), 0.3439181, 1e-6);
}

TEST(AtkinsonTest, ParameterValidation) {
  EXPECT_FALSE(Atkinson(HandAnchor(), 0.0).ok());
  EXPECT_FALSE(Atkinson(HandAnchor(), 1.0).ok());
  EXPECT_FALSE(Atkinson(HandAnchor(), -0.5).ok());
  EXPECT_TRUE(Atkinson(HandAnchor(), 0.25).ok());
}

TEST(AtkinsonTest, NonFiniteParameterRejected) {
  // `b <= 0 || b >= 1` let NaN through, and every Atkinson value was NaN.
  for (double b : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_EQ(Atkinson(HandAnchor(), b).status().code(),
              StatusCode::kInvalidArgument)
        << b;
    IndexParams params;
    params.atkinson_b = b;
    EXPECT_EQ(ComputeIndex(IndexKind::kAtkinson, HandAnchor(), params)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << b;
    EXPECT_EQ(ComputeAllIndexes(HandAnchor(), params).status().code(),
              StatusCode::kInvalidArgument)
        << b;
    // The other kinds do not read b.
    EXPECT_TRUE(ComputeIndex(IndexKind::kGini, HandAnchor(), params).ok());
  }
}

TEST(DegenerateTest, AllIndexesRejectDegenerateInputs) {
  GroupDistribution no_minority = GroupDistribution::FromVectors({10}, {0});
  GroupDistribution all_minority = GroupDistribution::FromVectors({10}, {10});
  GroupDistribution empty;
  for (IndexKind kind : AllIndexKinds()) {
    EXPECT_EQ(ComputeIndex(kind, no_minority).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(ComputeIndex(kind, all_minority).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(ComputeIndex(kind, empty).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(DegenerateTest, BrokenCountsRejected) {
  GroupDistribution broken = GroupDistribution::FromVectors({3}, {5});
  EXPECT_EQ(Dissimilarity(broken).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ComputeAllTest, MatchesIndividualCalls) {
  auto all = ComputeAllIndexes(HandAnchor());
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(all->defined);
  for (IndexKind kind : AllIndexKinds()) {
    EXPECT_EQ((*all)[kind], ComputeIndex(kind, HandAnchor()).value())
        << IndexKindToString(kind);
  }
}

TEST(ComputeAllTest, BrokenCountsNameTheFirstBadUnit) {
  // The kernel checks m_i <= t_i inside its one pass; the error is the
  // one Validate() reports, whichever path the unit takes.
  GroupDistribution broken =
      GroupDistribution::FromVectors({5, 4, 3, 9}, {1, 0, 4, 12});
  auto direct = ComputeAllIndexes(broken);
  ASSERT_EQ(direct.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(direct.status(), broken.Validate());
  EXPECT_NE(direct.status().message().find("unit 2"), std::string::npos);
  auto table = UnitTermTable::Build(16, IndexParams());
  ASSERT_TRUE(table.ok());
  IndexScratch scratch;
  EXPECT_EQ(ComputeAllIndexes(broken, table.value(), &scratch).status(),
            broken.Validate());
  // Broken counts outrank a bad b and a degenerate total.
  IndexParams bad_b;
  bad_b.atkinson_b = 2.0;
  EXPECT_EQ(ComputeAllIndexes(broken, bad_b).status(), broken.Validate());
  GroupDistribution degenerate = GroupDistribution::FromVectors({2, 3}, {3, 2});
  ASSERT_TRUE(degenerate.IsDegenerate());
  EXPECT_EQ(ComputeAllIndexes(degenerate).status(), degenerate.Validate());
  EXPECT_EQ(ComputeAllIndexes(degenerate, table.value(), &scratch).status(),
            degenerate.Validate());
}

TEST(ComputeAllTest, DegenerateYieldsUndefined) {
  auto all = ComputeAllIndexes(GroupDistribution::FromVectors({10}, {0}));
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->defined);
}

TEST(SingleUnitTest, EverythingInOneUnitIsUnsegregated) {
  // One unit holding everyone: evenness indexes are 0 by definition.
  GroupDistribution d = GroupDistribution::FromVectors({100}, {30});
  EXPECT_NEAR(Dissimilarity(d).value(), 0.0, kTol);
  EXPECT_NEAR(Gini(d).value(), 0.0, kTol);
  EXPECT_NEAR(Information(d).value(), 0.0, kTol);
  EXPECT_NEAR(Atkinson(d).value(), 0.0, kTol);
  EXPECT_NEAR(Isolation(d).value(), 0.3, kTol);
}

// ---------------------------------------------------------------------------
// Bit-exact goldens on cube-shaped distributions: most units hold no
// minority member (about 77% of a cell's units in the perfbench `build`
// cube), some are empty (t_i = 0) and some all-minority (m_i = t_i).
// ---------------------------------------------------------------------------

GroupDistribution SparseMinorityDistribution(uint64_t seed, size_t num_units) {
  Rng rng(seed);
  GroupDistribution d;
  for (size_t i = 0; i < num_units; ++i) {
    uint64_t t = rng.NextBounded(40);
    uint64_t roll = rng.NextBounded(100);
    uint64_t m = 0;
    if (t > 0 && roll >= 77) m = roll >= 95 ? t : 1 + rng.NextBounded(t);
    d.AddUnit(t, m);
  }
  return d;
}

std::string HexFloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

struct IndexGolden {
  uint64_t seed;
  size_t num_units;
  double atkinson_b;
  std::array<double, kNumIndexKinds> values;  // IndexKind order
};

// Captured from the implementation that evaluated log, pow and the full
// sort for every unit; any reordering of a sum shows up in the last bits.
const IndexGolden kIndexGoldens[] = {
    {1, 12, 0.5,
     {0x1.e5be5be5be5bep-1, 0x1.fd89d89d89d8ap-1, 0x1.e07bba83adae4p-1,
      0x1.e806d978b8efbp-1, 0x1.7f92687471044p-5, 0x1.fd89d89d89d8ap-1}},
    {2, 60, 0.5,
     {0x1.e039f5911ef64p-1, 0x1.f8f3c45f5395cp-1, 0x1.ada54d8942563p-1,
      0x1.b058b1d2520e5p-1, 0x1.3e9d38b6b7c68p-3, 0x1.f4dece16693a1p-1}},
    {3, 400, 0.5,
     {0x1.cf805130d8fbp-1, 0x1.f4a07e0155c5bp-1, 0x1.91ae6463ab26cp-1,
      0x1.9860702267c18p-1, 0x1.9e7e3f7660fa5p-3, 0x1.ebd6af4b67849p-1}},
    {4, 2060, 0.5,
     {0x1.d243abfa330aep-1, 0x1.f49c0bbabc651p-1, 0x1.8f361fcc55051p-1,
      0x1.9391f3ccc7084p-1, 0x1.b1b830cce3de6p-3, 0x1.eb307d8298ffep-1}},
    {5, 2060, 0.25,
     {0x1.d5ed904e2d185p-1, 0x1.f5778c6f9792bp-1, 0x1.95c0eec648c1p-1,
      0x1.9b3bffae52d51p-1, 0x1.93100146b4aa9p-3, 0x1.dfe2e261626c6p-1}},
    {6, 9000, 0.8,
     {0x1.d528aeee7a612p-1, 0x1.f603f58d2dd4cp-1, 0x1.961029deb80efp-1,
      0x1.9a06e260c62f5p-1, 0x1.97e4767ce739ap-3, 0x1.fd398b1bac27cp-1}},
};

TEST(IndexGoldenTest, SparseMinorityValuesAreBitExact) {
  for (const IndexGolden& g : kIndexGoldens) {
    GroupDistribution d = SparseMinorityDistribution(g.seed, g.num_units);
    IndexParams params;
    params.atkinson_b = g.atkinson_b;
    auto all = ComputeAllIndexes(d, params);
    ASSERT_TRUE(all.ok());
    ASSERT_TRUE(all->defined) << "seed " << g.seed;
    for (IndexKind kind : AllIndexKinds()) {
      const std::string want = HexFloat(g.values[static_cast<size_t>(kind)]);
      EXPECT_EQ(HexFloat((*all)[kind]), want)
          << "seed " << g.seed << " " << IndexKindToString(kind);
      auto one = ComputeIndex(kind, d, params);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(HexFloat(one.value()), want)
          << "seed " << g.seed << " " << IndexKindToString(kind);
    }
  }
}

TEST(IndexGoldenTest, DistributionsHaveTheEdgeUnits) {
  // The goldens only pin the shortcuts if the inputs exercise them.
  size_t zero_minority = 0, empty = 0, all_minority = 0, units = 0;
  for (const IndexGolden& g : kIndexGoldens) {
    GroupDistribution d = SparseMinorityDistribution(g.seed, g.num_units);
    for (size_t i = 0; i < d.NumUnits(); ++i) {
      ++units;
      if (d.UnitTotal(i) == 0) {
        ++empty;
      } else if (d.UnitMinority(i) == 0) {
        ++zero_minority;
      } else if (d.UnitMinority(i) == d.UnitTotal(i)) {
        ++all_minority;
      }
    }
  }
  EXPECT_GT(zero_minority, units * 7 / 10);
  EXPECT_GT(empty, 0u);
  EXPECT_GT(all_minority, 0u);
}

// ---------------------------------------------------------------------------
// The unit-term table: the fill's per-(m, t) memo must give the bits of the
// direct path for every unit, inside or outside the table.
// ---------------------------------------------------------------------------

TEST(UnitTermTableTest, RanksSortUnitsByProportionThenSize) {
  constexpr uint64_t kBound = UnitTermTable::kMaxTotalBound;
  EXPECT_EQ(UnitTermTable::Build(0, IndexParams())->max_total(), 0u);
  EXPECT_EQ(UnitTermTable::Build(51, IndexParams())->max_total(), 51u);
  EXPECT_EQ(UnitTermTable::Build(kBound * 4, IndexParams())->max_total(),
            kBound);
  auto table = UnitTermTable::Build(60, IndexParams());
  ASSERT_TRUE(table.ok());
  const size_t entries = 60 * 61 / 2;
  std::vector<bool> seen(entries, false);
  for (uint64_t t = 1; t <= 60; ++t) {
    for (uint64_t m = 1; m <= t; ++m) {
      const UnitTermTable::Terms& terms = table->At(t, m);
      ASSERT_LT(terms.rank, entries);
      EXPECT_FALSE(seen[terms.rank]) << m << "/" << t;
      seen[terms.rank] = true;
      const double ti = static_cast<double>(t);
      EXPECT_EQ(table->ByRank(terms.rank),
                std::make_pair(static_cast<double>(m) / ti, ti));
    }
  }
  for (uint32_t r = 1; r < entries; ++r) {
    EXPECT_LT(table->ByRank(r - 1), table->ByRank(r)) << r;
  }
}

TEST(UnitTermTableTest, RejectsBadAtkinsonParameter) {
  for (double b : {0.0, 1.0, -0.5, 1.5, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    IndexParams params;
    params.atkinson_b = b;
    EXPECT_EQ(UnitTermTable::Build(10, params).status().code(),
              StatusCode::kInvalidArgument)
        << b;
  }
}

// Units on both sides of the table bound: empty units, units without a
// minority member (most of a cube cell's), all-minority units, and
// proportions shared across sizes (1/2 = 2/4 = 128/256 = 200/400).
GroupDistribution MixedSizeDistribution(Rng* rng, size_t num_units) {
  constexpr uint64_t kBound = UnitTermTable::kMaxTotalBound;
  GroupDistribution d;
  for (size_t i = 0; i < num_units; ++i) {
    const uint64_t size_roll = rng->NextBounded(100);
    uint64_t t = 0;
    if (size_roll >= 8) {
      t = size_roll >= 85 ? kBound - 8 + rng->NextBounded(24)
          : size_roll >= 75 ? 1 + rng->NextBounded(3 * kBound)
                            : 1 + rng->NextBounded(60);
    }
    const uint64_t m_roll = rng->NextBounded(100);
    uint64_t m = 0;
    if (t > 0 && m_roll >= 55) {
      m = m_roll >= 92 ? t : m_roll >= 85 ? t / 2 : 1 + rng->NextBounded(t);
    }
    d.AddUnit(t, m);
  }
  return d;
}

TEST(UnitTermTableTest, TableAndDirectPathsAreBitEqual) {
  constexpr uint64_t kBound = UnitTermTable::kMaxTotalBound;
  Rng rng(20261018);
  IndexScratch scratch;  // reused across every call, as a fill worker does
  size_t compared = 0;
  for (double b : {0.25, 0.5, 0.8}) {
    IndexParams params;
    params.atkinson_b = b;
    auto full = UnitTermTable::Build(kBound, params);
    auto small = UnitTermTable::Build(40, params);
    auto none = UnitTermTable::Build(0, params);
    ASSERT_TRUE(full.ok() && small.ok() && none.ok());
    for (int trial = 0; trial < 150; ++trial) {
      GroupDistribution d =
          MixedSizeDistribution(&rng, 1 + rng.NextBounded(trial < 20 ? 8 : 400));
      auto want = ComputeAllIndexes(d, none.value(), &scratch);
      ASSERT_TRUE(want.ok());
      auto public_path = ComputeAllIndexes(d, params);
      ASSERT_TRUE(public_path.ok());
      for (const UnitTermTable* table : {&full.value(), &small.value()}) {
        auto got = ComputeAllIndexes(d, *table, &scratch);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->defined, want->defined);
        ASSERT_EQ(public_path->defined, want->defined);
        if (!want->defined) continue;
        ++compared;
        for (IndexKind kind : AllIndexKinds()) {
          ASSERT_EQ(HexFloat((*got)[kind]), HexFloat((*want)[kind]))
              << "b " << b << " trial " << trial << " max_total "
              << table->max_total() << " " << IndexKindToString(kind);
          ASSERT_EQ(HexFloat((*public_path)[kind]), HexFloat((*want)[kind]))
              << IndexKindToString(kind);
        }
      }
    }
  }
  EXPECT_GT(compared, 600u);
}

// ---------------------------------------------------------------------------
// Property sweeps on random distributions.
// ---------------------------------------------------------------------------

GroupDistribution RandomDistribution(Rng* rng, size_t num_units,
                                     uint64_t max_unit) {
  GroupDistribution d;
  for (size_t i = 0; i < num_units; ++i) {
    uint64_t t = rng->NextBounded(max_unit + 1);
    uint64_t m = t == 0 ? 0 : rng->NextBounded(t + 1);
    d.AddUnit(t, m);
  }
  return d;
}

// The O(n^2) textbook Gini, the oracle for the O(n log n) one.
// `dist` must be valid and non-degenerate.
double GiniQuadratic(const GroupDistribution& dist) {
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

class IndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexPropertyTest, InvariantsHoldOnRandomData) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    size_t units = 1 + rng.NextBounded(30);
    GroupDistribution d = RandomDistribution(&rng, units, 50);
    if (d.IsDegenerate()) continue;

    auto all = ComputeAllIndexes(d);
    ASSERT_TRUE(all.ok());
    ASSERT_TRUE(all->defined);

    // Range [0,1] for every index.
    for (IndexKind kind : AllIndexKinds()) {
      EXPECT_GE((*all)[kind], -1e-9) << IndexKindToString(kind);
      EXPECT_LE((*all)[kind], 1.0 + 1e-9) << IndexKindToString(kind);
    }
    // Binary groups: isolation + interaction = 1.
    EXPECT_NEAR((*all)[IndexKind::kIsolation] +
                    (*all)[IndexKind::kInteraction],
                1.0, 1e-9);
    // Dissimilarity never exceeds Gini (James & Taeuber).
    EXPECT_LE((*all)[IndexKind::kDissimilarity],
              (*all)[IndexKind::kGini] + 1e-9);
    // Isolation is at least the global proportion P.
    EXPECT_GE((*all)[IndexKind::kIsolation],
              d.MinorityProportion() - 1e-9);
    // Fast Gini matches the quadratic reference.
    EXPECT_NEAR((*all)[IndexKind::kGini], GiniQuadratic(d), 1e-9);
  }
}

TEST_P(IndexPropertyTest, OrganizationalEquivalence) {
  // Splitting a unit into two parts with identical minority proportion
  // leaves every index unchanged.
  Rng rng(GetParam() * 7919);
  for (int trial = 0; trial < 20; ++trial) {
    GroupDistribution d = RandomDistribution(&rng, 6, 40);
    if (d.IsDegenerate()) continue;
    // Build the split version: duplicate each unit as two halves (2t, 2m)
    // -> (t, m) + (t, m) keeps proportions identical.
    GroupDistribution doubled, split;
    for (size_t i = 0; i < d.NumUnits(); ++i) {
      doubled.AddUnit(2 * d.UnitTotal(i), 2 * d.UnitMinority(i));
      split.AddUnit(d.UnitTotal(i), d.UnitMinority(i));
      split.AddUnit(d.UnitTotal(i), d.UnitMinority(i));
    }
    auto a = ComputeAllIndexes(doubled);
    auto b = ComputeAllIndexes(split);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    if (!a->defined) continue;
    for (IndexKind kind : AllIndexKinds()) {
      EXPECT_NEAR((*a)[kind], (*b)[kind], 1e-9) << IndexKindToString(kind);
    }
  }
}

TEST_P(IndexPropertyTest, TransfersWeaklyIncreaseIsolation) {
  // Moving a minority member from a low-proportion unit to a
  // high-proportion unit weakly increases the isolation index.
  Rng rng(GetParam() * 104729);
  for (int trial = 0; trial < 20; ++trial) {
    GroupDistribution d = RandomDistribution(&rng, 8, 60);
    if (d.IsDegenerate()) continue;
    // Find donor (lowest p with m>0, not full) and recipient (highest p,
    // not full, different unit).
    int donor = -1, recipient = -1;
    double donor_p = 2.0, recipient_p = -1.0;
    for (size_t i = 0; i < d.NumUnits(); ++i) {
      if (d.UnitTotal(i) == 0) continue;
      double p = static_cast<double>(d.UnitMinority(i)) / d.UnitTotal(i);
      if (d.UnitMinority(i) > 0 && p < donor_p) {
        donor_p = p;
        donor = static_cast<int>(i);
      }
      if (d.UnitMinority(i) < d.UnitTotal(i) && p > recipient_p) {
        recipient_p = p;
        recipient = static_cast<int>(i);
      }
    }
    if (donor < 0 || recipient < 0 || donor == recipient ||
        donor_p >= recipient_p) {
      continue;
    }
    GroupDistribution moved;
    for (size_t i = 0; i < d.NumUnits(); ++i) {
      uint64_t m = d.UnitMinority(i);
      uint64_t t = d.UnitTotal(i);
      if (static_cast<int>(i) == donor) {
        m -= 1;
        t -= 1;
      }
      if (static_cast<int>(i) == recipient) {
        m += 1;
        t += 1;
      }
      moved.AddUnit(t, m);
    }
    if (moved.IsDegenerate()) continue;
    auto before = ComputeAllIndexes(d);
    auto after = ComputeAllIndexes(moved);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(after.ok());
    EXPECT_GE((*after)[IndexKind::kIsolation],
              (*before)[IndexKind::kIsolation] - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace indexes
}  // namespace scube
