#include "common/random.h"

#include <cmath>

#include "common/hashing.h"
#include "common/logging.h"

namespace scube {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  // The splitmix64 sequence from `seed`.
  uint64_t s = seed;
  for (auto& word : state_) {
    word = Mix64(s);
    s += kGoldenGamma;
  }
}

uint64_t Rng::Next() {
  uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  SCUBE_CHECK(bound > 0);
  // Lemire's multiply-shift with rejection for exact uniformity.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (~bound + 1) % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  SCUBE_CHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextGaussian() {
  if (have_gaussian_) {
    have_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  while (u1 <= 1e-300) u1 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  spare_gaussian_ = r * std::sin(theta);
  have_gaussian_ = true;
  return r * std::cos(theta);
}

size_t Rng::NextCategorical(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  SCUBE_CHECK(total > 0);
  double draw = NextDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (draw < acc) return i;
  }
  return weights.size() - 1;
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  SCUBE_CHECK(n > 0);
  // Rejection-inversion (Hörmann-Derflinger style, simplified).
  if (n == 1) return 1;
  double b = std::pow(2.0, s - 1.0);
  while (true) {
    double u = NextDouble();
    double v = NextDouble();
    uint64_t x = static_cast<uint64_t>(
        std::floor(std::pow(static_cast<double>(n) + 1.0, u)));
    if (x < 1) x = 1;
    if (x > n) continue;
    if (s == 1.0) {
      // The s -> 1 limit of the test below, where t - 1 and b - 1 both
      // vanish: (t - 1) / (b - 1) tends to ln((x + 1) / x) / ln 2, t / b
      // to 1.
      const double xd = static_cast<double>(x);
      if (v * xd * std::log((xd + 1.0) / xd) / std::log(2.0) <= 1.0) {
        return x;
      }
      continue;
    }
    double t = std::pow((static_cast<double>(x) + 1.0) / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) return x;
  }
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  size_t n = weights.size();
  SCUBE_CHECK(n > 0);
  double total = 0;
  for (double w : weights) {
    SCUBE_CHECK(w >= 0);
    total += w;
  }
  SCUBE_CHECK(total > 0);
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / total;
  std::vector<uint32_t> small, large;
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;
}

size_t AliasSampler::Sample(Rng* rng) const {
  size_t i = rng->NextBounded(prob_.size());
  return rng->NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace scube
