#include "math/rng.h"

#include <cmath>

#include "common/logging.h"

namespace kelpie {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  KELPIE_CHECK(bound > 0);
  // Lemire's unbiased bounded generation.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  KELPIE_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  while (u1 <= 1e-300) {
    u1 = UniformDouble();
  }
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t population,
                                                  size_t count) {
  KELPIE_CHECK(count <= population);
  // Partial Fisher–Yates over an index vector; O(population) setup is fine
  // at the scales this library operates at.
  std::vector<size_t> indices(population);
  for (size_t i = 0; i < population; ++i) {
    indices[i] = i;
  }
  std::vector<size_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + static_cast<size_t>(UniformUint64(population - i));
    std::swap(indices[i], indices[j]);
    out.push_back(indices[i]);
  }
  return out;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

RngState Rng::SaveState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::LoadState(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

size_t SampleZipf(Rng& rng, size_t n, double exponent) {
  KELPIE_CHECK(n > 0);
  KELPIE_CHECK(exponent > 1.0);
  // Inverse-CDF via rejection on the continuous Zipf envelope
  // (Devroye, Non-Uniform Random Variate Generation).
  if (n == 1) return 0;
  const double s = exponent;
  const double b = std::pow(2.0, s - 1.0);
  while (true) {
    double u = rng.UniformDouble();
    double v = rng.UniformDouble();
    double x = std::floor(std::pow(u, -1.0 / (s - 1.0)));
    if (x < 1.0 || x > static_cast<double>(n)) continue;
    double t = std::pow(1.0 + 1.0 / x, s - 1.0);
    if (v * x * (t - 1.0) / (b - 1.0) <= t / b) {
      return static_cast<size_t>(x) - 1;
    }
  }
}

}  // namespace kelpie
