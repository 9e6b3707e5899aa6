#ifndef KELPIE_MATH_RNG_H_
#define KELPIE_MATH_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kelpie {

/// Complete serializable state of an Rng stream. Capturing it and loading
/// it into any Rng (same process or a later one) continues the stream at
/// exactly the draw where it was captured — the substrate of byte-identical
/// training checkpoint resume (ml/checkpoint.h).
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  /// Box–Muller keeps a cached second normal; it is part of the stream
  /// position (dropping it would shift every later Normal() draw).
  bool has_cached_normal = false;
  double cached_normal = 0.0;

  friend bool operator==(const RngState&, const RngState&) = default;
};

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. All stochastic steps in the library — embedding
/// initialization, batch shuffling, negative sampling, the Explanation
/// Builder's probabilistic early stop, dataset generation — draw from
/// explicitly passed `Rng` instances, so every experiment is reproducible
/// bit-for-bit from its seed.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value. Inline, like UniformDouble() and Bernoulli():
  /// the ConvE dropout masks draw one per activation.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling (Lemire) to avoid modulo bias.
  uint64_t UniformUint64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal draw (Box–Muller, cached second value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with probability `p` of true.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Fisher–Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Draws `count` distinct indices from [0, population) without
  /// replacement; `count` must be <= population. Order is random.
  std::vector<size_t> SampleWithoutReplacement(size_t population,
                                               size_t count);

  /// Forks an independent generator whose stream is a deterministic function
  /// of this generator's state; used to give parallelizable sub-tasks their
  /// own streams.
  Rng Fork();

  /// Captures the full stream position. LoadState(SaveState()) is a no-op;
  /// a generator loaded with a captured state produces exactly the sequence
  /// the capturing generator would have produced next.
  RngState SaveState() const;
  void LoadState(const RngState& state);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Samples an index from a Zipf(s) distribution over [0, n). Used by the
/// synthetic dataset generators to obtain the heavily skewed entity-degree
/// distributions that real LP datasets exhibit.
size_t SampleZipf(Rng& rng, size_t n, double exponent);

}  // namespace kelpie

#endif  // KELPIE_MATH_RNG_H_
