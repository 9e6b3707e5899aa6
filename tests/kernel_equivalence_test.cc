// Bitwise equivalence of the dispatching simd:: kernels against the
// always-compiled scalar reference (math/simd.h). The reference is the
// lane-determinism contract written out in plain code, so these tests pin
// the active backend (scalar, SSE2, or AVX2 — whatever KELPIE_SIMD chose)
// to the contract: same result bits for every dimension, including the
// odd remainders a vector backend handles in its scalar tail, and for
// special values (signed zeros, denormals, infinities).
#include "math/simd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "math/matrix.h"
#include "math/quant.h"
#include "math/rng.h"
#include "math/vec.h"

namespace kelpie {
namespace {

uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

/// EXPECT_EQ on the raw bit patterns: distinguishes +0 from -0 and treats
/// NaN == NaN when the payloads match.
void ExpectBitEqual(float a, float b, const std::string& what) {
  EXPECT_EQ(Bits(a), Bits(b)) << what << ": " << a << " vs " << b;
}

std::vector<float> RandomVec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
  }
  return v;
}

constexpr size_t kMaxDim = 67;  // covers every remainder mod 8 twice, plus 3

TEST(KernelEquivalenceTest, BackendNameMatchesEnum) {
  const std::string name = simd::BackendName();
  switch (simd::ActiveBackend()) {
    case simd::Backend::kScalar:
      EXPECT_EQ(name, "scalar");
      break;
    case simd::Backend::kSse2:
      EXPECT_EQ(name, "sse2");
      break;
    case simd::Backend::kAvx2:
      EXPECT_EQ(name, "avx2");
      break;
  }
}

TEST(KernelEquivalenceTest, DotMatchesScalarReferenceAllDims) {
  Rng rng(101);
  for (size_t n = 1; n <= kMaxDim; ++n) {
    std::vector<float> a = RandomVec(n, rng);
    std::vector<float> b = RandomVec(n, rng);
    ExpectBitEqual(simd::Dot(a, b), simd::scalar::Dot(a, b),
                   "Dot n=" + std::to_string(n));
  }
}

TEST(KernelEquivalenceTest, SquaredDistanceMatchesScalarReferenceAllDims) {
  Rng rng(102);
  for (size_t n = 1; n <= kMaxDim; ++n) {
    std::vector<float> a = RandomVec(n, rng);
    std::vector<float> b = RandomVec(n, rng);
    ExpectBitEqual(simd::SquaredDistance(a, b),
                   simd::scalar::SquaredDistance(a, b),
                   "SquaredDistance n=" + std::to_string(n));
  }
}

TEST(KernelEquivalenceTest, L1DistanceMatchesScalarReferenceAllDims) {
  Rng rng(103);
  for (size_t n = 1; n <= kMaxDim; ++n) {
    std::vector<float> a = RandomVec(n, rng);
    std::vector<float> b = RandomVec(n, rng);
    ExpectBitEqual(simd::L1Distance(a, b), simd::scalar::L1Distance(a, b),
                   "L1Distance n=" + std::to_string(n));
  }
}

TEST(KernelEquivalenceTest, AxpyMatchesScalarReferenceAllDims) {
  Rng rng(104);
  for (size_t n = 1; n <= kMaxDim; ++n) {
    std::vector<float> x = RandomVec(n, rng);
    std::vector<float> y = RandomVec(n, rng);
    const float alpha = static_cast<float>(rng.UniformDouble(-1.5, 1.5));
    std::vector<float> y_simd = y;
    std::vector<float> y_ref = y;
    simd::Axpy(alpha, x, y_simd);
    simd::scalar::Axpy(alpha, x, y_ref);
    for (size_t i = 0; i < n; ++i) {
      ExpectBitEqual(y_simd[i], y_ref[i],
                     "Axpy n=" + std::to_string(n) + " i=" + std::to_string(i));
    }
  }
}

TEST(KernelEquivalenceTest, ScaleMatchesScalarReferenceAllDims) {
  Rng rng(105);
  // Includes alpha = 0 (produces signed zeros from negative inputs) and a
  // negative alpha.
  const float alphas[] = {0.0f, -1.25f, 0.731f};
  for (float alpha : alphas) {
    for (size_t n = 1; n <= kMaxDim; ++n) {
      std::vector<float> x = RandomVec(n, rng);
      std::vector<float> x_simd = x;
      std::vector<float> x_ref = x;
      simd::Scale(std::span<float>(x_simd), alpha);
      simd::scalar::Scale(std::span<float>(x_ref), alpha);
      for (size_t i = 0; i < n; ++i) {
        ExpectBitEqual(x_simd[i], x_ref[i],
                       "Scale n=" + std::to_string(n) +
                           " alpha=" + std::to_string(alpha));
      }
    }
  }
}

TEST(KernelEquivalenceTest, GemvMatchesScalarReference) {
  Rng rng(106);
  for (size_t rows = 1; rows <= 19; ++rows) {
    for (size_t cols : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u,
                        64u, 67u}) {
      std::vector<float> m = RandomVec(rows * cols, rng);
      std::vector<float> x = RandomVec(cols, rng);
      std::vector<float> out_simd(rows), out_ref(rows);
      simd::GemvRowMajor(m.data(), rows, cols, x.data(), out_simd.data());
      simd::scalar::GemvRowMajor(m.data(), rows, cols, x.data(),
                                 out_ref.data());
      for (size_t r = 0; r < rows; ++r) {
        ExpectBitEqual(out_simd[r], out_ref[r],
                       "Gemv rows=" + std::to_string(rows) +
                           " cols=" + std::to_string(cols) +
                           " r=" + std::to_string(r));
        // Each row must also equal a standalone Dot of that row (the
        // blocking must not change per-row results).
        std::span<const float> row(m.data() + r * cols, cols);
        ExpectBitEqual(out_simd[r], simd::Dot(row, x),
                       "Gemv-vs-Dot rows=" + std::to_string(rows));
      }
    }
  }
}

TEST(KernelEquivalenceTest, SquaredDistanceRowsMatchesScalarReference) {
  Rng rng(107);
  for (size_t rows = 1; rows <= 19; ++rows) {
    for (size_t cols : {1u, 3u, 8u, 9u, 16u, 17u, 33u, 64u, 67u}) {
      std::vector<float> m = RandomVec(rows * cols, rng);
      std::vector<float> x = RandomVec(cols, rng);
      std::vector<float> out_simd(rows), out_ref(rows);
      simd::SquaredDistanceRows(m.data(), rows, cols, x.data(),
                                out_simd.data());
      simd::scalar::SquaredDistanceRows(m.data(), rows, cols, x.data(),
                                        out_ref.data());
      for (size_t r = 0; r < rows; ++r) {
        ExpectBitEqual(out_simd[r], out_ref[r],
                       "SqDistRows rows=" + std::to_string(rows) +
                           " cols=" + std::to_string(cols));
        std::span<const float> row(m.data() + r * cols, cols);
        ExpectBitEqual(out_simd[r], simd::SquaredDistance(row, x),
                       "SqDistRows-vs-SquaredDistance");
      }
    }
  }
}

/// Special values: signed zeros, denormals, and infinities must flow
/// through every backend identically (no FTZ/DAZ divergence, no reordering
/// that turns Inf - Inf into a different NaN path).
std::vector<float> SpecialVec(size_t n, uint32_t salt) {
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {+0.0f,       -0.0f,  denorm_min, -denorm_min,
                            1e-40f,      -1e-40f, inf,       -inf,
                            1.5f,        -2.75f,  1e30f,     -1e30f};
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = specials[(i * 7 + salt) % (sizeof(specials) / sizeof(float))];
  }
  return v;
}

TEST(KernelEquivalenceTest, SpecialValuesMatchScalarReference) {
  for (size_t n = 1; n <= kMaxDim; ++n) {
    for (uint32_t salt = 0; salt < 5; ++salt) {
      std::vector<float> a = SpecialVec(n, salt);
      std::vector<float> b = SpecialVec(n, salt + 3);
      ExpectBitEqual(simd::Dot(a, b), simd::scalar::Dot(a, b),
                     "special Dot n=" + std::to_string(n));
      ExpectBitEqual(simd::SquaredDistance(a, b),
                     simd::scalar::SquaredDistance(a, b),
                     "special SquaredDistance n=" + std::to_string(n));
      ExpectBitEqual(simd::L1Distance(a, b), simd::scalar::L1Distance(a, b),
                     "special L1Distance n=" + std::to_string(n));
      std::vector<float> y_simd = b, y_ref = b;
      simd::Axpy(-1.0f, a, y_simd);
      simd::scalar::Axpy(-1.0f, a, y_ref);
      for (size_t i = 0; i < n; ++i) {
        ExpectBitEqual(y_simd[i], y_ref[i], "special Axpy");
      }
    }
  }
}

/// Pins the scalar reference itself to the documented contract with an
/// independent test-local reimplementation: term i goes to lane i & 7,
/// lanes reduce in the fixed tree. If the reference ever drifts (e.g. to a
/// sequential sum), this catches it even though reference and backend
/// would still agree with each other.
TEST(KernelEquivalenceTest, ScalarReferenceFollowsLaneContract) {
  Rng rng(108);
  for (size_t n : {1u, 7u, 8u, 9u, 16u, 23u, 64u, 67u}) {
    std::vector<float> a = RandomVec(n, rng);
    std::vector<float> b = RandomVec(n, rng);
    float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (size_t i = 0; i < n; ++i) {
      lanes[i & 7] += a[i] * b[i];
    }
    const float expected = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
                           ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    ExpectBitEqual(simd::scalar::Dot(a, b), expected,
                   "contract n=" + std::to_string(n));
  }
}

/// The vec.h entry points must expose the same kernels (they delegate to
/// simd::), so every caller in the models inherits the lane contract.
TEST(KernelEquivalenceTest, VecEntryPointsDelegate) {
  Rng rng(109);
  std::vector<float> a = RandomVec(37, rng);
  std::vector<float> b = RandomVec(37, rng);
  ExpectBitEqual(Dot(a, b), simd::Dot(a, b), "vec Dot");
  ExpectBitEqual(SquaredDistance(a, b), simd::SquaredDistance(a, b),
                 "vec SquaredDistance");
  ExpectBitEqual(L1Distance(a, b), simd::L1Distance(a, b), "vec L1Distance");
  ExpectBitEqual(SquaredNorm(a), simd::Dot(a, a), "vec SquaredNorm");
}

// ---------------------------------------------------------------------------
// Optimizer steps and the transposed sweep. These are element-wise (no lane
// contract): mul, add, sub, div and sqrt are each correctly rounded, and
// none may fuse, so every backend must match the reference bit for bit —
// for signed zeros, denormals, infinities and NaNs too.
// ---------------------------------------------------------------------------

void ExpectSpansBitEqual(std::span<const float> a, std::span<const float> b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectBitEqual(a[i], b[i], what + " i=" + std::to_string(i));
  }
}

/// Gradient / query entries that stress the step: signed zeros, denormals,
/// infinities, a NaN and ordinary values.
std::vector<float> SpecialGradVec(size_t n, uint32_t salt) {
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {+0.0f, -0.0f, denorm_min, -denorm_min, 1e-40f,
                            inf,   -inf,  nan,        0.75f,       -1.5f,
                            3e-20f};
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = specials[(i * 5 + salt) % (sizeof(specials) / sizeof(float))];
  }
  return v;
}

/// Non-negative accumulator rows (Adagrad state): all zeros (a fresh row)
/// or positive values.
std::vector<float> AccumVec(size_t n, bool zero, Rng& rng) {
  std::vector<float> v(n, 0.0f);
  if (!zero) {
    for (float& x : v) x = static_cast<float>(rng.UniformDouble(0.0, 3.0));
  }
  return v;
}

constexpr float kEps = 1e-8f;
// A base learning rate and the same rate backed off by a guard lr_scale.
constexpr float kLearningRates[] = {0.1f, 0.1f * 0.5f};

TEST(KernelEquivalenceTest, AdagradRowStepMatchesScalarReferenceAllDims) {
  Rng rng(110);
  for (float lr : kLearningRates) {
    for (bool zero_accum : {true, false}) {
      for (size_t n = 1; n <= kMaxDim; ++n) {
        for (uint32_t salt = 0; salt < 3; ++salt) {
          // salt 0: random gradients; 1..2: special values.
          const std::vector<float> grad =
              salt == 0 ? RandomVec(n, rng) : SpecialGradVec(n, salt);
          const std::vector<float> param = RandomVec(n, rng);
          const std::vector<float> accum = AccumVec(n, zero_accum, rng);
          std::vector<float> p_simd = param, a_simd = accum;
          std::vector<float> p_ref = param, a_ref = accum;
          simd::AdagradRowStep(p_simd.data(), a_simd.data(), grad.data(), n,
                               lr, kEps);
          simd::scalar::AdagradRowStep(p_ref.data(), a_ref.data(),
                                       grad.data(), n, lr, kEps);
          const std::string what = "AdagradRowStep n=" + std::to_string(n) +
                                   " salt=" + std::to_string(salt);
          ExpectSpansBitEqual(p_simd, p_ref, what + " param");
          ExpectSpansBitEqual(a_simd, a_ref, what + " accum");
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, AdagradCandidateRowStepMatchesScalarReference) {
  Rng rng(111);
  const float inf = std::numeric_limits<float>::infinity();
  const float coeffs[] = {0.37f, -1.25f, 0.0f, -0.0f, 1e-40f, inf};
  for (float lr : kLearningRates) {
    for (bool zero_accum : {true, false}) {
      for (size_t n = 1; n <= kMaxDim; ++n) {
        for (uint32_t salt = 0; salt < 3; ++salt) {
          const std::vector<float> query =
              salt == 0 ? RandomVec(n, rng) : SpecialGradVec(n, salt);
          const float coeff = coeffs[(n + salt) % std::size(coeffs)];
          const std::vector<float> param = RandomVec(n, rng);
          const std::vector<float> accum = AccumVec(n, zero_accum, rng);
          const std::vector<float> out = RandomVec(n, rng);
          std::vector<float> p_simd = param, a_simd = accum, o_simd = out;
          std::vector<float> p_ref = param, a_ref = accum, o_ref = out;
          simd::AdagradCandidateRowStep(p_simd.data(), a_simd.data(),
                                        query.data(), coeff, n, lr, kEps,
                                        o_simd.data());
          simd::scalar::AdagradCandidateRowStep(p_ref.data(), a_ref.data(),
                                                query.data(), coeff, n, lr,
                                                kEps, o_ref.data());
          const std::string what = "AdagradCandidateRowStep n=" +
                                   std::to_string(n) +
                                   " salt=" + std::to_string(salt);
          ExpectSpansBitEqual(p_simd, p_ref, what + " param");
          ExpectSpansBitEqual(a_simd, a_ref, what + " accum");
          ExpectSpansBitEqual(o_simd, o_ref, what + " out");
        }
      }
    }
  }
}

/// The fused kernel is the unfused sequence the trainers fall back to
/// (form g = coeff * query, AdagradRowStep, Axpy of the updated row), so
/// both paths produce the same bytes on the active backend.
TEST(KernelEquivalenceTest, AdagradCandidateRowStepEqualsUnfusedSequence) {
  Rng rng(112);
  for (float lr : kLearningRates) {
    for (size_t n = 1; n <= kMaxDim; ++n) {
      const std::vector<float> query =
          n % 3 == 0 ? SpecialGradVec(n, 1) : RandomVec(n, rng);
      const float coeff = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
      const std::vector<float> param = RandomVec(n, rng);
      const std::vector<float> accum = AccumVec(n, n % 2 == 0, rng);
      const std::vector<float> out = RandomVec(n, rng);
      std::vector<float> p_fused = param, a_fused = accum, o_fused = out;
      simd::AdagradCandidateRowStep(p_fused.data(), a_fused.data(),
                                    query.data(), coeff, n, lr, kEps,
                                    o_fused.data());
      std::vector<float> p = param, a = accum, o = out, g(n);
      for (size_t i = 0; i < n; ++i) g[i] = coeff * query[i];
      simd::AdagradRowStep(p.data(), a.data(), g.data(), n, lr, kEps);
      simd::Axpy(coeff, p, o);
      const std::string what = "fused vs unfused n=" + std::to_string(n);
      ExpectSpansBitEqual(p_fused, p, what + " param");
      ExpectSpansBitEqual(a_fused, a, what + " accum");
      ExpectSpansBitEqual(o_fused, o, what + " out");
    }
  }
}

TEST(KernelEquivalenceTest, AxpyRowsMatchesScalarReferenceAndAxpyLoop) {
  Rng rng(113);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Column counts cover every register-block width of both vector
  // backends, the 64-column blocks twice over, and the scalar column tail.
  std::vector<size_t> col_counts;
  for (size_t c = 1; c <= kMaxDim; ++c) col_counts.push_back(c);
  for (size_t c : {128u, 131u, 200u}) col_counts.push_back(c);
  for (size_t cols : col_counts) {
    for (size_t rows : {0u, 1u, 5u, 13u}) {
      for (float skip_below : {0.0f, 1e-7f}) {
        const std::vector<float> matrix = RandomVec(rows * cols, rng);
        std::vector<float> coeffs = RandomVec(rows, rng);
        // Coefficients on both sides of the skip threshold, signed zeros
        // (kept only without a threshold) and a NaN (never skipped).
        const float specials[] = {5e-8f, -5e-8f, 0.0f, -0.0f, nan, 1e-7f};
        for (size_t r = 0; r < rows; r += 2) {
          coeffs[r] = specials[(r / 2 + cols) % std::size(specials)];
        }
        const std::vector<float> out = RandomVec(cols, rng);
        std::vector<float> o_simd = out, o_ref = out, o_loop = out;
        simd::AxpyRows(matrix.data(), rows, cols, coeffs.data(), skip_below,
                       o_simd.data());
        simd::scalar::AxpyRows(matrix.data(), rows, cols, coeffs.data(),
                               skip_below, o_ref.data());
        for (size_t r = 0; r < rows; ++r) {
          if (std::fabs(coeffs[r]) < skip_below) continue;
          simd::Axpy(coeffs[r],
                     std::span<const float>(matrix.data() + r * cols, cols),
                     o_loop);
        }
        const std::string what = "AxpyRows cols=" + std::to_string(cols) +
                                 " rows=" + std::to_string(rows) +
                                 " skip=" + std::to_string(skip_below);
        ExpectSpansBitEqual(o_simd, o_ref, what + " vs reference");
        ExpectSpansBitEqual(o_simd, o_loop, what + " vs Axpy loop");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Network kernels (ConvE's conv/ReLU/dropout layers, DESIGN.md §11.5): the
// vector backends reorder the loops but not any element's float operations,
// and skip exactly the ±0 gradient terms the reference skips.
// ---------------------------------------------------------------------------

/// Activations / gradients with signed zeros, negatives, a denormal, a NaN
/// and ordinary values, salted so neighbouring cases differ.
std::vector<float> NetVec(size_t n, uint32_t salt, Rng& rng) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> v = RandomVec(n, rng);
  const float specials[] = {0.0f, -0.0f, -0.5f, 0.0f, denorm, -0.0f, nan,
                            -2.0f};
  for (size_t i = 0; i < n; i += 2) {
    v[i] = specials[(i / 2 + salt) % std::size(specials)];
  }
  return v;
}

TEST(KernelEquivalenceTest, MulAndReluMatchScalarReferenceAllDims) {
  Rng rng(120);
  for (size_t n = 0; n <= kMaxDim; ++n) {
    const std::vector<float> x = NetVec(n, static_cast<uint32_t>(n), rng);
    const std::vector<float> y = NetVec(n, static_cast<uint32_t>(n + 3), rng);
    const std::string dim = " n=" + std::to_string(n);

    std::vector<float> m_simd = x, m_ref = x;
    simd::Mul(m_simd, y);
    simd::scalar::Mul(m_ref, y);
    ExpectSpansBitEqual(m_simd, m_ref, "Mul" + dim);

    std::vector<float> r_simd = x, r_ref = x;
    simd::ReluInPlace(r_simd.data(), n);
    simd::scalar::ReluInPlace(r_ref.data(), n);
    ExpectSpansBitEqual(r_simd, r_ref, "ReluInPlace" + dim);

    std::vector<float> g_simd = y, g_ref = y;
    simd::ReluBackward(x.data(), g_simd.data(), n);
    simd::scalar::ReluBackward(x.data(), g_ref.data(), n);
    ExpectSpansBitEqual(g_simd, g_ref, "ReluBackward" + dim);
  }
  // The reference's exact special-value semantics: -0 and NaN pass the
  // forward ReLU unchanged; a NaN activation keeps its gradient.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> v = {-0.0f, nan, -1.0f, 2.0f, 0.0f, -3.0f, 4.0f, -0.0f,
                          -5.0f};
  simd::ReluInPlace(v.data(), v.size());
  EXPECT_EQ(Bits(v[0]), Bits(-0.0f));
  EXPECT_TRUE(std::isnan(v[1]));
  EXPECT_EQ(Bits(v[2]), Bits(0.0f));
  EXPECT_EQ(Bits(v[8]), Bits(0.0f));
  std::vector<float> act = {nan, -0.0f, 1.0f, -1.0f, nan, 0.0f, 2.0f, 3.0f,
                            -4.0f};
  std::vector<float> grad(act.size(), -7.0f);
  simd::ReluBackward(act.data(), grad.data(), grad.size());
  EXPECT_EQ(grad[0], -7.0f);
  EXPECT_EQ(Bits(grad[1]), Bits(0.0f));
  EXPECT_EQ(grad[2], -7.0f);
  EXPECT_EQ(Bits(grad[8]), Bits(0.0f));
}

/// Convolution shapes: kernels 2-5, channel counts below, at and around
/// both vector widths, images from barely larger than the kernel (the
/// forward's narrow-image fallback) to wider than one register.
std::vector<simd::ConvShape> ConvShapes() {
  std::vector<simd::ConvShape> shapes;
  for (size_t k = 2; k <= 5; ++k) {
    for (size_t channels : {1u, 3u, 4u, 5u, 8u, 9u, 13u, 16u}) {
      for (auto [h, w] : {std::pair<size_t, size_t>{k, k},
                          {k + 1, k + 2},
                          {8, 8},
                          {6, 8},
                          {7, 11},
                          {12, 5 + k}}) {
        if (h < k || w < k) continue;
        shapes.push_back({h, w, k, k, channels});
      }
    }
    shapes.push_back({9, 10, k, k + 1, 7});  // a non-square kernel
  }
  return shapes;
}

std::string ShapeName(const simd::ConvShape& s) {
  return std::to_string(s.in_h) + "x" + std::to_string(s.in_w) + " k" +
         std::to_string(s.kernel_h) + "x" + std::to_string(s.kernel_w) +
         " c" + std::to_string(s.channels);
}

TEST(KernelEquivalenceTest, Conv2dForwardMatchesScalarReference) {
  Rng rng(121);
  for (const simd::ConvShape& shape : ConvShapes()) {
    const std::vector<float> input = NetVec(shape.in_h * shape.in_w, 1, rng);
    const std::vector<float> weights =
        RandomVec(shape.channels * shape.taps(), rng);
    const std::vector<float> bias = NetVec(shape.channels, 2, rng);
    const size_t out = shape.channels * shape.out_h() * shape.out_w();
    std::vector<float> o_simd(out, 9.0f), o_ref(out, -9.0f);
    simd::Conv2dForward(shape, input.data(), weights.data(), bias.data(),
                        o_simd.data());
    simd::scalar::Conv2dForward(shape, input.data(), weights.data(),
                                bias.data(), o_ref.data());
    ExpectSpansBitEqual(o_simd, o_ref, "Conv2dForward " + ShapeName(shape));
  }
}

TEST(KernelEquivalenceTest, Conv2dBackwardMatchesScalarReference) {
  Rng rng(122);
  for (const simd::ConvShape& shape : ConvShapes()) {
    const size_t n_in = shape.in_h * shape.in_w;
    const size_t n_w = shape.channels * shape.taps();
    const std::vector<float> input = NetVec(n_in, 3, rng);
    const std::vector<float> weights = RandomVec(n_w, rng);
    // Half the gradient entries are ±0 (skipped), the rest negative or
    // positive; the accumulators start with -0 entries, which a skipped
    // term must leave as -0.
    std::vector<float> grad_output =
        NetVec(shape.channels * shape.out_h() * shape.out_w(), 4, rng);
    for (size_t i = 1; i < grad_output.size(); i += 4) {
      grad_output[i] = i % 8 == 1 ? 0.0f : -0.0f;
    }
    const std::vector<float> gw0 = NetVec(n_w, 5, rng);
    const std::vector<float> gb0 = NetVec(shape.channels, 6, rng);
    std::vector<float> gi0(n_in, -0.0f);
    for (size_t i = 0; i < n_in; i += 3) gi0[i] = 0.25f;
    for (int outputs = 1; outputs < 8; ++outputs) {
      const bool want_w = outputs & 1, want_b = outputs & 2,
                 want_i = outputs & 4;
      std::vector<float> gw_s = gw0, gb_s = gb0, gi_s = gi0;
      std::vector<float> gw_r = gw0, gb_r = gb0, gi_r = gi0;
      simd::Conv2dBackward(shape, input.data(), weights.data(),
                           grad_output.data(), want_w ? gw_s.data() : nullptr,
                           want_b ? gb_s.data() : nullptr,
                           want_i ? gi_s.data() : nullptr);
      simd::scalar::Conv2dBackward(
          shape, input.data(), weights.data(), grad_output.data(),
          want_w ? gw_r.data() : nullptr, want_b ? gb_r.data() : nullptr,
          want_i ? gi_r.data() : nullptr);
      const std::string what = "Conv2dBackward " + ShapeName(shape) +
                               " outputs=" + std::to_string(outputs);
      ExpectSpansBitEqual(gw_s, gw_r, what + " grad_weights");
      ExpectSpansBitEqual(gb_s, gb_r, what + " grad_bias");
      ExpectSpansBitEqual(gi_s, gi_r, what + " grad_input");
    }
  }
}

// ---------------------------------------------------------------------------
// int8 quantized kernels (math/quant.h). The accumulation is exact int32,
// so the dispatching kernel must equal the scalar reference to the integer
// on every backend — no tolerance, no lane contract needed.
// ---------------------------------------------------------------------------

std::vector<int8_t> RandomI8(size_t n, Rng& rng) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(
        std::lround(rng.UniformDouble(-127.49, 127.49)));
  }
  return v;
}

TEST(QuantKernelEquivalenceTest, GemvI8MatchesScalarReferenceAllDims) {
  Rng rng(201);
  for (size_t rows = 1; rows <= 19; ++rows) {
    for (size_t cols : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u,
                        64u, 67u}) {
      std::vector<int8_t> m = RandomI8(rows * cols, rng);
      std::vector<int8_t> x = RandomI8(cols, rng);
      std::vector<int32_t> out(rows), ref(rows);
      quant::GemvRowMajorI8(m.data(), rows, cols, x.data(), out.data());
      quant::scalar::GemvRowMajorI8(m.data(), rows, cols, x.data(),
                                    ref.data());
      for (size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(out[r], ref[r]) << "GemvI8 rows=" << rows
                                  << " cols=" << cols << " r=" << r;
      }
    }
  }
}

/// Saturation extremes: every code at +/-127 maximizes the products. A
/// maddubs-based kernel (u8 x s8, saturating pair adds) breaks exactly
/// here; the sign-extended madd path must return the analytic integer.
TEST(QuantKernelEquivalenceTest, GemvI8SaturationExtremes) {
  for (size_t cols : {1u, 15u, 16u, 17u, 64u, 67u, 128u, 1024u}) {
    std::vector<int8_t> pos(cols, static_cast<int8_t>(127));
    std::vector<int8_t> neg(cols, static_cast<int8_t>(-127));
    int32_t out = 0;
    quant::GemvRowMajorI8(pos.data(), 1, cols, neg.data(), &out);
    EXPECT_EQ(out, -16129 * static_cast<int32_t>(cols)) << "cols=" << cols;
    quant::GemvRowMajorI8(neg.data(), 1, cols, neg.data(), &out);
    EXPECT_EQ(out, 16129 * static_cast<int32_t>(cols)) << "cols=" << cols;
    // Alternating signs cancel pairwise within madd's 16-bit pair sums.
    std::vector<int8_t> alt(cols);
    for (size_t j = 0; j < cols; ++j) {
      alt[j] = static_cast<int8_t>(j % 2 == 0 ? 127 : -127);
    }
    quant::GemvRowMajorI8(alt.data(), 1, cols, pos.data(), &out);
    const int32_t expected =
        16129 * static_cast<int32_t>((cols + 1) / 2) -
        16129 * static_cast<int32_t>(cols / 2);
    EXPECT_EQ(out, expected) << "cols=" << cols;
  }
}

/// Degenerate rows: all-zero (zero scale), all-equal, and non-finite rows
/// must quantize to the documented canonical forms on every backend.
TEST(QuantKernelEquivalenceTest, QuantizeDegenerateRows) {
  Matrix m(4, 8);
  // Row 0 stays all-zero. Row 1: all elements equal.
  for (size_t j = 0; j < 8; ++j) m.At(1, j) = -0.625f;
  // Row 2: one NaN poisons the row.
  m.At(2, 3) = std::numeric_limits<float>::quiet_NaN();
  m.At(2, 0) = 1.0f;
  // Row 3: ordinary values.
  for (size_t j = 0; j < 8; ++j) m.At(3, j) = 0.125f * static_cast<float>(j);
  std::shared_ptr<const quant::QuantizedTable> qt = quant::QuantizeRowMajor(m);
  ASSERT_NE(qt, nullptr);
  EXPECT_EQ(qt->scale[0], 0.0);
  EXPECT_EQ(qt->recon_l1[0], 0.0);
  EXPECT_TRUE(qt->finite[0]);
  for (int8_t c : qt->Row(0)) EXPECT_EQ(c, 0);
  // All-equal row: every code is exactly -127, reconstruction exact in
  // double (|v| = scale * 127 by construction).
  EXPECT_TRUE(qt->finite[1]);
  for (int8_t c : qt->Row(1)) EXPECT_EQ(c, -127);
  EXPECT_LT(qt->recon_l1[1], 1e-12);
  // Non-finite row: zero codes, finite flag cleared.
  EXPECT_FALSE(qt->finite[2]);
  for (int8_t c : qt->Row(2)) EXPECT_EQ(c, 0);
  EXPECT_TRUE(qt->finite[3]);
}

uint64_t Bits64(double d) { return std::bit_cast<uint64_t>(d); }

/// The certified-interval contract: for every row, the exact float kernel
/// value lies within [approx - err, approx + err]. Exercised over random
/// tables, duplicated rows, near-ties, and degenerate rows — this is the
/// inequality the byte-identical quantized rank path rests on.
TEST(QuantKernelEquivalenceTest, CertifiedIntervalContainsExactKernelValue) {
  Rng rng(202);
  for (size_t cols : {1u, 3u, 8u, 16u, 17u, 33u, 64u, 67u}) {
    Matrix m(23, cols);
    for (size_t r = 0; r < 20; ++r) {
      for (size_t j = 0; j < cols; ++j) {
        m.At(r, j) = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      }
    }
    // Row 20 duplicates row 0; row 21 is row 0 nudged by one ulp in one
    // element (adversarial near-tie); row 22 stays all-zero.
    for (size_t j = 0; j < cols; ++j) {
      m.At(20, j) = m.At(0, j);
      m.At(21, j) = m.At(0, j);
    }
    m.At(21, 0) = std::nextafter(m.At(0, 0), 10.0f);
    std::vector<float> x(cols);
    for (float& v : x) v = static_cast<float>(rng.UniformDouble(-2.0, 2.0));

    std::shared_ptr<const quant::QuantizedTable> qt =
        quant::QuantizeRowMajor(m);
    ASSERT_NE(qt, nullptr);
    quant::QuantizedVec qx = quant::QuantizeVec(x);
    ASSERT_TRUE(qx.finite);
    std::vector<double> approx(m.rows()), err(m.rows());
    quant::ApproxDots(*qt, qx, approx, err);
    for (size_t r = 0; r < m.rows(); ++r) {
      const double exact = static_cast<double>(simd::Dot(m.Row(r), x));
      EXPECT_LE(std::fabs(exact - approx[r]), err[r])
          << "dot cols=" << cols << " r=" << r;
    }
    std::vector<double> approx_d(m.rows()), err_d(m.rows());
    quant::ApproxSquaredDistances(*qt, qx, approx_d, err_d);
    for (size_t r = 0; r < m.rows(); ++r) {
      const double exact =
          static_cast<double>(simd::SquaredDistance(m.Row(r), x));
      EXPECT_LE(std::fabs(exact - approx_d[r]), err_d[r])
          << "sqdist cols=" << cols << " r=" << r;
    }
    // approx/err are pure double arithmetic over exact integers: a second
    // evaluation must reproduce them bit for bit (the backends only differ
    // in the int32 kernel, already pinned above).
    std::vector<double> approx2(m.rows()), err2(m.rows());
    quant::ApproxDots(*qt, qx, approx2, err2);
    for (size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(Bits64(approx[r]), Bits64(approx2[r]));
      EXPECT_EQ(Bits64(err[r]), Bits64(err2[r]));
    }
  }
}

/// Non-finite table rows get err = +Inf — never a finite bound that could
/// silently misclassify them.
TEST(QuantKernelEquivalenceTest, NonFiniteRowsGetInfiniteError) {
  Matrix m(2, 8);
  for (size_t j = 0; j < 8; ++j) m.At(0, j) = 1.0f;
  m.At(1, 0) = std::numeric_limits<float>::infinity();
  std::vector<float> x(8, 0.5f);
  std::shared_ptr<const quant::QuantizedTable> qt = quant::QuantizeRowMajor(m);
  ASSERT_NE(qt, nullptr);
  quant::QuantizedVec qx = quant::QuantizeVec(x);
  std::vector<double> approx(2), err(2);
  quant::ApproxDots(*qt, qx, approx, err);
  EXPECT_TRUE(std::isfinite(err[0]));
  EXPECT_TRUE(std::isinf(err[1]));
  quant::ApproxSquaredDistances(*qt, qx, approx, err);
  EXPECT_TRUE(std::isfinite(err[0]));
  EXPECT_TRUE(std::isinf(err[1]));
}

}  // namespace
}  // namespace kelpie
