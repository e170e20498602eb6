// Deterministic random number generation. All randomized components of the
// library (workload generators, random layouts, synthetic databases) take an
// explicit seed so experiments are reproducible run-to-run.

#ifndef DBLAYOUT_COMMON_RNG_H_
#define DBLAYOUT_COMMON_RNG_H_

#include <atomic>
#include <cstdint>
#include <random>
#include <vector>

namespace dblayout {

/// Process-wide default seed for components that are not handed an explicit
/// one. Set once at startup (`dblayout advise --seed N`) and logged into the
/// trace metadata so any run can be reproduced. Defaults to 0.
inline std::atomic<uint64_t>& GlobalSeedStorage() {
  static std::atomic<uint64_t> seed{0};
  return seed;
}
inline uint64_t GlobalSeed() {
  return GlobalSeedStorage().load(std::memory_order_relaxed);
}
inline void SetGlobalSeed(uint64_t seed) {
  GlobalSeedStorage().store(seed, std::memory_order_relaxed);
}

/// Thin deterministic wrapper over std::mt19937_64 with the handful of
/// sampling helpers the library needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> d(lo, hi);
    return d(gen_);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(gen_);
  }

  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p) {
    std::bernoulli_distribution d(p);
    return d(gen_);
  }

  /// Picks a uniformly random element index for a container of size n (n>0).
  size_t Index(size_t n) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Index(i)]);
    }
  }

  /// Samples an index in [0, weights.size()) with probability proportional to
  /// weights[i]. All weights must be non-negative with positive sum.
  size_t WeightedIndex(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    double r = UniformDouble(0, total);
    double acc = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (r < acc) return i;
    }
    return weights.size() - 1;
  }

  std::mt19937_64& engine() { return gen_; }

 private:
  std::mt19937_64 gen_;
};

}  // namespace dblayout

#endif  // DBLAYOUT_COMMON_RNG_H_
