// Deterministic PRNG and sampling helpers.
//
// All synthetic-data generation and randomised algorithms in SCube draw from
// this engine so that every experiment is reproducible from a single seed.

#ifndef SCUBE_COMMON_RANDOM_H_
#define SCUBE_COMMON_RANDOM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace scube {

/// \brief xoshiro256** engine seeded via splitmix64. Not cryptographic.
class Rng {
 public:
  /// Seeds the four-word state from a single 64-bit seed.
  explicit Rng(uint64_t seed = 0x5EEDBA5EBA11ULL);

  /// Next raw 64-bit draw.
  uint64_t Next();

  /// Uniform integer in [0, bound), bound > 0 (Lemire rejection-free scaling).
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli draw with success probability p.
  bool NextBool(double p);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Index drawn from unnormalised weights (linear scan; fine for small k).
  size_t NextCategorical(const std::vector<double>& weights);

  /// Zipf-distributed integer in [1, n] with exponent s (rejection sampling).
  uint64_t NextZipf(uint64_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool have_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

/// \brief Precomputed sampler for a fixed discrete distribution
/// (Walker alias method; O(1) per draw).
class AliasSampler {
 public:
  /// Builds from unnormalised non-negative weights (at least one positive).
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draws an index in [0, size()).
  size_t Sample(Rng* rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace scube

#endif  // SCUBE_COMMON_RANDOM_H_
