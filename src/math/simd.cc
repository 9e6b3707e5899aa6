#include "math/simd.h"

#include <cmath>

#include "common/logging.h"

// Backend selection. Exactly one of the three is compiled into the
// dispatching kernels; the scalar reference below is always compiled.
//   KELPIE_SIMD_DISABLE     — forced scalar (KELPIE_SIMD=off)
//   KELPIE_SIMD_FORCE_SSE2  — pin SSE2 even when the TU is compiled with
//                             AVX2 flags (KELPIE_SIMD=sse2)
//   otherwise               — widest instruction set the compiler flags
//                             enable (__AVX2__ > __SSE2__ > scalar)
#if defined(KELPIE_SIMD_DISABLE)
#define KELPIE_SIMD_BACKEND 0
#elif defined(KELPIE_SIMD_FORCE_SSE2) && defined(__SSE2__)
#define KELPIE_SIMD_BACKEND 1
#elif defined(__AVX2__)
#define KELPIE_SIMD_BACKEND 2
#elif defined(__SSE2__)
#define KELPIE_SIMD_BACKEND 1
#else
#define KELPIE_SIMD_BACKEND 0
#endif

#if KELPIE_SIMD_BACKEND > 0
#include <immintrin.h>
#endif

namespace kelpie {
namespace simd {

namespace {

/// The fixed reduction tree of the 8 virtual lanes (lane contract, step 3).
inline float ReduceLanes(const float lanes[8]) {
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

/// AxpyRows restricted to columns [begin, end) of rows with stride
/// `stride`: the reference loop, and the vector backends' column tail.
void AxpyRowsColumns(const float* matrix, size_t rows, size_t stride,
                     size_t begin, size_t end, const float* coeffs,
                     float skip_below, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    const float c = coeffs[r];
    if (std::fabs(c) < skip_below) continue;
    const float* row = matrix + r * stride;
    for (size_t i = begin; i < end; ++i) {
      out[i] += c * row[i];
    }
  }
}

/// One register-resident column block of a vector backend's AxpyRows.
using AxpyRowsBlockFn = void (*)(const float* matrix, size_t rows,
                                 size_t stride, const float* coeffs,
                                 float skip_below, float* out);

}  // namespace

// ---------------------------------------------------------------------------
// Scalar reference: the lane contract written out in plain code.
// ---------------------------------------------------------------------------

namespace scalar {

float Dot(std::span<const float> a, std::span<const float> b) {
  KELPIE_DCHECK(a.size() == b.size());
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < a.size(); ++i) {
    lanes[i & 7] += a[i] * b[i];
  }
  return ReduceLanes(lanes);
}

float SquaredDistance(std::span<const float> a, std::span<const float> b) {
  KELPIE_DCHECK(a.size() == b.size());
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    lanes[i & 7] += d * d;
  }
  return ReduceLanes(lanes);
}

float L1Distance(std::span<const float> a, std::span<const float> b) {
  KELPIE_DCHECK(a.size() == b.size());
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (size_t i = 0; i < a.size(); ++i) {
    lanes[i & 7] += std::fabs(a[i] - b[i]);
  }
  return ReduceLanes(lanes);
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  KELPIE_DCHECK(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

void Scale(std::span<float> x, float alpha) {
  for (float& v : x) {
    v *= alpha;
  }
}

void GemvRowMajor(const float* matrix, size_t rows, size_t cols,
                  const float* x, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Dot(std::span<const float>(matrix + r * cols, cols),
                 std::span<const float>(x, cols));
  }
}

void SquaredDistanceRows(const float* matrix, size_t rows, size_t cols,
                         const float* x, float* out) {
  for (size_t r = 0; r < rows; ++r) {
    out[r] = SquaredDistance(std::span<const float>(matrix + r * cols, cols),
                             std::span<const float>(x, cols));
  }
}

void AxpyRows(const float* matrix, size_t rows, size_t cols,
              const float* coeffs, float skip_below, float* out) {
  AxpyRowsColumns(matrix, rows, cols, 0, cols, coeffs, skip_below, out);
}

void AdagradRowStep(float* param, float* accum, const float* grad, size_t n,
                    float lr, float eps) {
  for (size_t i = 0; i < n; ++i) {
    accum[i] += grad[i] * grad[i];
    param[i] -= lr * grad[i] / (std::sqrt(accum[i]) + eps);
  }
}

void AdagradCandidateRowStep(float* param, float* accum, const float* query,
                             float coeff, size_t n, float lr, float eps,
                             float* out) {
  for (size_t i = 0; i < n; ++i) {
    const float g = coeff * query[i];
    accum[i] += g * g;
    param[i] -= lr * g / (std::sqrt(accum[i]) + eps);
    out[i] += coeff * param[i];
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 backend: the 8 virtual lanes are one 256-bit register.
// ---------------------------------------------------------------------------

#if KELPIE_SIMD_BACKEND == 2

namespace {
namespace avx2 {

inline __m256 AbsMask() {
  return _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
}

float Dot(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (; i < n; ++i) {
    lanes[i & 7] += a[i] * b[i];
  }
  return ReduceLanes(lanes);
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    lanes[i & 7] += d * d;
  }
  return ReduceLanes(lanes);
}

float L1Distance(const float* a, const float* b, size_t n) {
  const __m256 mask = AbsMask();
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_and_ps(mask, d));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (; i < n; ++i) {
    lanes[i & 7] += std::fabs(a[i] - b[i]);
  }
  return ReduceLanes(lanes);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i,
                     _mm256_add_ps(_mm256_loadu_ps(y + i),
                                   _mm256_mul_ps(av, _mm256_loadu_ps(x + i))));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void Scale(float* x, float alpha, size_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), av));
  }
  for (; i < n; ++i) {
    x[i] *= alpha;
  }
}

/// Four-row block: one pass over `x` feeds four accumulators, each the
/// virtual-lane accumulator of its own row (so out[r] is bit-identical to
/// a standalone Dot of that row).
void Gemv4(const float* r0, const float* r1, const float* r2, const float* r3,
           const float* x, size_t cols, float* out) {
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= cols; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    a0 = _mm256_add_ps(a0, _mm256_mul_ps(_mm256_loadu_ps(r0 + i), xv));
    a1 = _mm256_add_ps(a1, _mm256_mul_ps(_mm256_loadu_ps(r1 + i), xv));
    a2 = _mm256_add_ps(a2, _mm256_mul_ps(_mm256_loadu_ps(r2 + i), xv));
    a3 = _mm256_add_ps(a3, _mm256_mul_ps(_mm256_loadu_ps(r3 + i), xv));
  }
  alignas(32) float l0[8], l1[8], l2[8], l3[8];
  _mm256_store_ps(l0, a0);
  _mm256_store_ps(l1, a1);
  _mm256_store_ps(l2, a2);
  _mm256_store_ps(l3, a3);
  for (; i < cols; ++i) {
    const float xi = x[i];
    l0[i & 7] += r0[i] * xi;
    l1[i & 7] += r1[i] * xi;
    l2[i & 7] += r2[i] * xi;
    l3[i & 7] += r3[i] * xi;
  }
  out[0] = ReduceLanes(l0);
  out[1] = ReduceLanes(l1);
  out[2] = ReduceLanes(l2);
  out[3] = ReduceLanes(l3);
}

void SqDist4(const float* r0, const float* r1, const float* r2,
             const float* r3, const float* x, size_t cols, float* out) {
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps();
  __m256 a3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= cols; i += 8) {
    const __m256 xv = _mm256_loadu_ps(x + i);
    __m256 d = _mm256_sub_ps(_mm256_loadu_ps(r0 + i), xv);
    a0 = _mm256_add_ps(a0, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(_mm256_loadu_ps(r1 + i), xv);
    a1 = _mm256_add_ps(a1, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(_mm256_loadu_ps(r2 + i), xv);
    a2 = _mm256_add_ps(a2, _mm256_mul_ps(d, d));
    d = _mm256_sub_ps(_mm256_loadu_ps(r3 + i), xv);
    a3 = _mm256_add_ps(a3, _mm256_mul_ps(d, d));
  }
  alignas(32) float l0[8], l1[8], l2[8], l3[8];
  _mm256_store_ps(l0, a0);
  _mm256_store_ps(l1, a1);
  _mm256_store_ps(l2, a2);
  _mm256_store_ps(l3, a3);
  for (; i < cols; ++i) {
    const float xi = x[i];
    float d = r0[i] - xi;
    l0[i & 7] += d * d;
    d = r1[i] - xi;
    l1[i & 7] += d * d;
    d = r2[i] - xi;
    l2[i & 7] += d * d;
    d = r3[i] - xi;
    l3[i & 7] += d * d;
  }
  out[0] = ReduceLanes(l0);
  out[1] = ReduceLanes(l1);
  out[2] = ReduceLanes(l2);
  out[3] = ReduceLanes(l3);
}

void AdagradRowStep(float* param, float* accum, const float* grad, size_t n,
                    float lr, float eps) {
  const __m256 lrv = _mm256_set1_ps(lr);
  const __m256 epsv = _mm256_set1_ps(eps);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_loadu_ps(grad + i);
    const __m256 a =
        _mm256_add_ps(_mm256_loadu_ps(accum + i), _mm256_mul_ps(g, g));
    _mm256_storeu_ps(accum + i, a);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lrv, g), _mm256_add_ps(_mm256_sqrt_ps(a), epsv));
    _mm256_storeu_ps(param + i, _mm256_sub_ps(_mm256_loadu_ps(param + i), step));
  }
  scalar::AdagradRowStep(param + i, accum + i, grad + i, n - i, lr, eps);
}

void AdagradCandidateRowStep(float* param, float* accum, const float* query,
                             float coeff, size_t n, float lr, float eps,
                             float* out) {
  const __m256 cv = _mm256_set1_ps(coeff);
  const __m256 lrv = _mm256_set1_ps(lr);
  const __m256 epsv = _mm256_set1_ps(eps);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 g = _mm256_mul_ps(cv, _mm256_loadu_ps(query + i));
    const __m256 a =
        _mm256_add_ps(_mm256_loadu_ps(accum + i), _mm256_mul_ps(g, g));
    _mm256_storeu_ps(accum + i, a);
    const __m256 p = _mm256_sub_ps(
        _mm256_loadu_ps(param + i),
        _mm256_div_ps(_mm256_mul_ps(lrv, g),
                      _mm256_add_ps(_mm256_sqrt_ps(a), epsv)));
    _mm256_storeu_ps(param + i, p);
    _mm256_storeu_ps(out + i,
                     _mm256_add_ps(_mm256_loadu_ps(out + i),
                                   _mm256_mul_ps(cv, p)));
  }
  scalar::AdagradCandidateRowStep(param + i, accum + i, query + i, coeff,
                                  n - i, lr, eps, out + i);
}

/// AxpyRows over the K*8 columns at `matrix`/`out` (row stride `stride`):
/// the K accumulators stay in registers across all rows.
template <size_t K>
void AxpyRowsBlock(const float* matrix, size_t rows, size_t stride,
                   const float* coeffs, float skip_below, float* out) {
  __m256 acc[K];
  for (size_t k = 0; k < K; ++k) acc[k] = _mm256_loadu_ps(out + 8 * k);
  for (size_t r = 0; r < rows; ++r) {
    const float c = coeffs[r];
    if (std::fabs(c) < skip_below) continue;
    const __m256 cv = _mm256_set1_ps(c);
    const float* row = matrix + r * stride;
    for (size_t k = 0; k < K; ++k) {
      acc[k] = _mm256_add_ps(acc[k],
                             _mm256_mul_ps(cv, _mm256_loadu_ps(row + 8 * k)));
    }
  }
  for (size_t k = 0; k < K; ++k) _mm256_storeu_ps(out + 8 * k, acc[k]);
}

constexpr size_t kAxpyRowsLanes = 8;
constexpr AxpyRowsBlockFn kAxpyRowsBlocks[] = {
    AxpyRowsBlock<1>, AxpyRowsBlock<2>, AxpyRowsBlock<3>, AxpyRowsBlock<4>,
    AxpyRowsBlock<5>, AxpyRowsBlock<6>, AxpyRowsBlock<7>, AxpyRowsBlock<8>};

}  // namespace avx2
}  // namespace

#endif  // KELPIE_SIMD_BACKEND == 2

// ---------------------------------------------------------------------------
// SSE2 backend: the 8 virtual lanes are two 128-bit registers (lanes 0-3
// in the low register, 4-7 in the high one).
// ---------------------------------------------------------------------------

#if KELPIE_SIMD_BACKEND == 1

namespace {
namespace sse2 {

inline __m128 AbsMask() {
  return _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
}

float Dot(const float* a, const float* b, size_t n) {
  __m128 lo = _mm_setzero_ps();
  __m128 hi = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    lo = _mm_add_ps(lo, _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
    hi = _mm_add_ps(
        hi, _mm_mul_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4)));
  }
  alignas(16) float lanes[8];
  _mm_store_ps(lanes, lo);
  _mm_store_ps(lanes + 4, hi);
  for (; i < n; ++i) {
    lanes[i & 7] += a[i] * b[i];
  }
  return ReduceLanes(lanes);
}

float SquaredDistance(const float* a, const float* b, size_t n) {
  __m128 lo = _mm_setzero_ps();
  __m128 hi = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    lo = _mm_add_ps(lo, _mm_mul_ps(d, d));
    d = _mm_sub_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4));
    hi = _mm_add_ps(hi, _mm_mul_ps(d, d));
  }
  alignas(16) float lanes[8];
  _mm_store_ps(lanes, lo);
  _mm_store_ps(lanes + 4, hi);
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    lanes[i & 7] += d * d;
  }
  return ReduceLanes(lanes);
}

float L1Distance(const float* a, const float* b, size_t n) {
  const __m128 mask = AbsMask();
  __m128 lo = _mm_setzero_ps();
  __m128 hi = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128 d = _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    lo = _mm_add_ps(lo, _mm_and_ps(mask, d));
    d = _mm_sub_ps(_mm_loadu_ps(a + i + 4), _mm_loadu_ps(b + i + 4));
    hi = _mm_add_ps(hi, _mm_and_ps(mask, d));
  }
  alignas(16) float lanes[8];
  _mm_store_ps(lanes, lo);
  _mm_store_ps(lanes + 4, hi);
  for (; i < n; ++i) {
    lanes[i & 7] += std::fabs(a[i] - b[i]);
  }
  return ReduceLanes(lanes);
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  const __m128 av = _mm_set1_ps(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(y + i, _mm_add_ps(_mm_loadu_ps(y + i),
                                    _mm_mul_ps(av, _mm_loadu_ps(x + i))));
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void Scale(float* x, float alpha, size_t n) {
  const __m128 av = _mm_set1_ps(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(x + i, _mm_mul_ps(_mm_loadu_ps(x + i), av));
  }
  for (; i < n; ++i) {
    x[i] *= alpha;
  }
}

void Gemv4(const float* r0, const float* r1, const float* r2, const float* r3,
           const float* x, size_t cols, float* out) {
  __m128 lo0 = _mm_setzero_ps(), hi0 = _mm_setzero_ps();
  __m128 lo1 = _mm_setzero_ps(), hi1 = _mm_setzero_ps();
  __m128 lo2 = _mm_setzero_ps(), hi2 = _mm_setzero_ps();
  __m128 lo3 = _mm_setzero_ps(), hi3 = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= cols; i += 8) {
    const __m128 xlo = _mm_loadu_ps(x + i);
    const __m128 xhi = _mm_loadu_ps(x + i + 4);
    lo0 = _mm_add_ps(lo0, _mm_mul_ps(_mm_loadu_ps(r0 + i), xlo));
    hi0 = _mm_add_ps(hi0, _mm_mul_ps(_mm_loadu_ps(r0 + i + 4), xhi));
    lo1 = _mm_add_ps(lo1, _mm_mul_ps(_mm_loadu_ps(r1 + i), xlo));
    hi1 = _mm_add_ps(hi1, _mm_mul_ps(_mm_loadu_ps(r1 + i + 4), xhi));
    lo2 = _mm_add_ps(lo2, _mm_mul_ps(_mm_loadu_ps(r2 + i), xlo));
    hi2 = _mm_add_ps(hi2, _mm_mul_ps(_mm_loadu_ps(r2 + i + 4), xhi));
    lo3 = _mm_add_ps(lo3, _mm_mul_ps(_mm_loadu_ps(r3 + i), xlo));
    hi3 = _mm_add_ps(hi3, _mm_mul_ps(_mm_loadu_ps(r3 + i + 4), xhi));
  }
  alignas(16) float l0[8], l1[8], l2[8], l3[8];
  _mm_store_ps(l0, lo0);
  _mm_store_ps(l0 + 4, hi0);
  _mm_store_ps(l1, lo1);
  _mm_store_ps(l1 + 4, hi1);
  _mm_store_ps(l2, lo2);
  _mm_store_ps(l2 + 4, hi2);
  _mm_store_ps(l3, lo3);
  _mm_store_ps(l3 + 4, hi3);
  for (; i < cols; ++i) {
    const float xi = x[i];
    l0[i & 7] += r0[i] * xi;
    l1[i & 7] += r1[i] * xi;
    l2[i & 7] += r2[i] * xi;
    l3[i & 7] += r3[i] * xi;
  }
  out[0] = ReduceLanes(l0);
  out[1] = ReduceLanes(l1);
  out[2] = ReduceLanes(l2);
  out[3] = ReduceLanes(l3);
}

void SqDist4(const float* r0, const float* r1, const float* r2,
             const float* r3, const float* x, size_t cols, float* out) {
  __m128 lo0 = _mm_setzero_ps(), hi0 = _mm_setzero_ps();
  __m128 lo1 = _mm_setzero_ps(), hi1 = _mm_setzero_ps();
  __m128 lo2 = _mm_setzero_ps(), hi2 = _mm_setzero_ps();
  __m128 lo3 = _mm_setzero_ps(), hi3 = _mm_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= cols; i += 8) {
    const __m128 xlo = _mm_loadu_ps(x + i);
    const __m128 xhi = _mm_loadu_ps(x + i + 4);
    __m128 d = _mm_sub_ps(_mm_loadu_ps(r0 + i), xlo);
    lo0 = _mm_add_ps(lo0, _mm_mul_ps(d, d));
    d = _mm_sub_ps(_mm_loadu_ps(r0 + i + 4), xhi);
    hi0 = _mm_add_ps(hi0, _mm_mul_ps(d, d));
    d = _mm_sub_ps(_mm_loadu_ps(r1 + i), xlo);
    lo1 = _mm_add_ps(lo1, _mm_mul_ps(d, d));
    d = _mm_sub_ps(_mm_loadu_ps(r1 + i + 4), xhi);
    hi1 = _mm_add_ps(hi1, _mm_mul_ps(d, d));
    d = _mm_sub_ps(_mm_loadu_ps(r2 + i), xlo);
    lo2 = _mm_add_ps(lo2, _mm_mul_ps(d, d));
    d = _mm_sub_ps(_mm_loadu_ps(r2 + i + 4), xhi);
    hi2 = _mm_add_ps(hi2, _mm_mul_ps(d, d));
    d = _mm_sub_ps(_mm_loadu_ps(r3 + i), xlo);
    lo3 = _mm_add_ps(lo3, _mm_mul_ps(d, d));
    d = _mm_sub_ps(_mm_loadu_ps(r3 + i + 4), xhi);
    hi3 = _mm_add_ps(hi3, _mm_mul_ps(d, d));
  }
  alignas(16) float l0[8], l1[8], l2[8], l3[8];
  _mm_store_ps(l0, lo0);
  _mm_store_ps(l0 + 4, hi0);
  _mm_store_ps(l1, lo1);
  _mm_store_ps(l1 + 4, hi1);
  _mm_store_ps(l2, lo2);
  _mm_store_ps(l2 + 4, hi2);
  _mm_store_ps(l3, lo3);
  _mm_store_ps(l3 + 4, hi3);
  for (; i < cols; ++i) {
    const float xi = x[i];
    float d = r0[i] - xi;
    l0[i & 7] += d * d;
    d = r1[i] - xi;
    l1[i & 7] += d * d;
    d = r2[i] - xi;
    l2[i & 7] += d * d;
    d = r3[i] - xi;
    l3[i & 7] += d * d;
  }
  out[0] = ReduceLanes(l0);
  out[1] = ReduceLanes(l1);
  out[2] = ReduceLanes(l2);
  out[3] = ReduceLanes(l3);
}

void AdagradRowStep(float* param, float* accum, const float* grad, size_t n,
                    float lr, float eps) {
  const __m128 lrv = _mm_set1_ps(lr);
  const __m128 epsv = _mm_set1_ps(eps);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 g = _mm_loadu_ps(grad + i);
    const __m128 a = _mm_add_ps(_mm_loadu_ps(accum + i), _mm_mul_ps(g, g));
    _mm_storeu_ps(accum + i, a);
    const __m128 step =
        _mm_div_ps(_mm_mul_ps(lrv, g), _mm_add_ps(_mm_sqrt_ps(a), epsv));
    _mm_storeu_ps(param + i, _mm_sub_ps(_mm_loadu_ps(param + i), step));
  }
  scalar::AdagradRowStep(param + i, accum + i, grad + i, n - i, lr, eps);
}

void AdagradCandidateRowStep(float* param, float* accum, const float* query,
                             float coeff, size_t n, float lr, float eps,
                             float* out) {
  const __m128 cv = _mm_set1_ps(coeff);
  const __m128 lrv = _mm_set1_ps(lr);
  const __m128 epsv = _mm_set1_ps(eps);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 g = _mm_mul_ps(cv, _mm_loadu_ps(query + i));
    const __m128 a = _mm_add_ps(_mm_loadu_ps(accum + i), _mm_mul_ps(g, g));
    _mm_storeu_ps(accum + i, a);
    const __m128 p = _mm_sub_ps(
        _mm_loadu_ps(param + i),
        _mm_div_ps(_mm_mul_ps(lrv, g), _mm_add_ps(_mm_sqrt_ps(a), epsv)));
    _mm_storeu_ps(param + i, p);
    _mm_storeu_ps(out + i, _mm_add_ps(_mm_loadu_ps(out + i), _mm_mul_ps(cv, p)));
  }
  scalar::AdagradCandidateRowStep(param + i, accum + i, query + i, coeff,
                                  n - i, lr, eps, out + i);
}

/// AxpyRows over the K*4 columns at `matrix`/`out` (row stride `stride`):
/// the K accumulators stay in registers across all rows.
template <size_t K>
void AxpyRowsBlock(const float* matrix, size_t rows, size_t stride,
                   const float* coeffs, float skip_below, float* out) {
  __m128 acc[K];
  for (size_t k = 0; k < K; ++k) acc[k] = _mm_loadu_ps(out + 4 * k);
  for (size_t r = 0; r < rows; ++r) {
    const float c = coeffs[r];
    if (std::fabs(c) < skip_below) continue;
    const __m128 cv = _mm_set1_ps(c);
    const float* row = matrix + r * stride;
    for (size_t k = 0; k < K; ++k) {
      acc[k] = _mm_add_ps(acc[k], _mm_mul_ps(cv, _mm_loadu_ps(row + 4 * k)));
    }
  }
  for (size_t k = 0; k < K; ++k) _mm_storeu_ps(out + 4 * k, acc[k]);
}

constexpr size_t kAxpyRowsLanes = 4;
constexpr AxpyRowsBlockFn kAxpyRowsBlocks[] = {
    AxpyRowsBlock<1>, AxpyRowsBlock<2>, AxpyRowsBlock<3>, AxpyRowsBlock<4>,
    AxpyRowsBlock<5>, AxpyRowsBlock<6>, AxpyRowsBlock<7>, AxpyRowsBlock<8>};

}  // namespace sse2
}  // namespace

#endif  // KELPIE_SIMD_BACKEND == 1

// ---------------------------------------------------------------------------
// Dispatch (resolved at compile time).
// ---------------------------------------------------------------------------

Backend ActiveBackend() {
#if KELPIE_SIMD_BACKEND == 2
  return Backend::kAvx2;
#elif KELPIE_SIMD_BACKEND == 1
  return Backend::kSse2;
#else
  return Backend::kScalar;
#endif
}

const char* BackendName() {
#if KELPIE_SIMD_BACKEND == 2
  return "avx2";
#elif KELPIE_SIMD_BACKEND == 1
  return "sse2";
#else
  return "scalar";
#endif
}

float Dot(std::span<const float> a, std::span<const float> b) {
  KELPIE_DCHECK(a.size() == b.size());
#if KELPIE_SIMD_BACKEND == 2
  return avx2::Dot(a.data(), b.data(), a.size());
#elif KELPIE_SIMD_BACKEND == 1
  return sse2::Dot(a.data(), b.data(), a.size());
#else
  return scalar::Dot(a, b);
#endif
}

float SquaredDistance(std::span<const float> a, std::span<const float> b) {
  KELPIE_DCHECK(a.size() == b.size());
#if KELPIE_SIMD_BACKEND == 2
  return avx2::SquaredDistance(a.data(), b.data(), a.size());
#elif KELPIE_SIMD_BACKEND == 1
  return sse2::SquaredDistance(a.data(), b.data(), a.size());
#else
  return scalar::SquaredDistance(a, b);
#endif
}

float L1Distance(std::span<const float> a, std::span<const float> b) {
  KELPIE_DCHECK(a.size() == b.size());
#if KELPIE_SIMD_BACKEND == 2
  return avx2::L1Distance(a.data(), b.data(), a.size());
#elif KELPIE_SIMD_BACKEND == 1
  return sse2::L1Distance(a.data(), b.data(), a.size());
#else
  return scalar::L1Distance(a, b);
#endif
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  KELPIE_DCHECK(x.size() == y.size());
#if KELPIE_SIMD_BACKEND == 2
  avx2::Axpy(alpha, x.data(), y.data(), x.size());
#elif KELPIE_SIMD_BACKEND == 1
  sse2::Axpy(alpha, x.data(), y.data(), x.size());
#else
  scalar::Axpy(alpha, x, y);
#endif
}

void Scale(std::span<float> x, float alpha) {
#if KELPIE_SIMD_BACKEND == 2
  avx2::Scale(x.data(), alpha, x.size());
#elif KELPIE_SIMD_BACKEND == 1
  sse2::Scale(x.data(), alpha, x.size());
#else
  scalar::Scale(x, alpha);
#endif
}

void GemvRowMajor(const float* matrix, size_t rows, size_t cols,
                  const float* x, float* out) {
#if KELPIE_SIMD_BACKEND == 0
  scalar::GemvRowMajor(matrix, rows, cols, x, out);
#else
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* base = matrix + r * cols;
#if KELPIE_SIMD_BACKEND == 2
    avx2::Gemv4(base, base + cols, base + 2 * cols, base + 3 * cols, x, cols,
                out + r);
#else
    sse2::Gemv4(base, base + cols, base + 2 * cols, base + 3 * cols, x, cols,
                out + r);
#endif
  }
  for (; r < rows; ++r) {
    out[r] = Dot(std::span<const float>(matrix + r * cols, cols),
                 std::span<const float>(x, cols));
  }
#endif
}

void SquaredDistanceRows(const float* matrix, size_t rows, size_t cols,
                         const float* x, float* out) {
#if KELPIE_SIMD_BACKEND == 0
  scalar::SquaredDistanceRows(matrix, rows, cols, x, out);
#else
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const float* base = matrix + r * cols;
#if KELPIE_SIMD_BACKEND == 2
    avx2::SqDist4(base, base + cols, base + 2 * cols, base + 3 * cols, x,
                  cols, out + r);
#else
    sse2::SqDist4(base, base + cols, base + 2 * cols, base + 3 * cols, x,
                  cols, out + r);
#endif
  }
  for (; r < rows; ++r) {
    out[r] = SquaredDistance(std::span<const float>(matrix + r * cols, cols),
                             std::span<const float>(x, cols));
  }
#endif
}

void AxpyRows(const float* matrix, size_t rows, size_t cols,
              const float* coeffs, float skip_below, float* out) {
#if KELPIE_SIMD_BACKEND == 0
  scalar::AxpyRows(matrix, rows, cols, coeffs, skip_below, out);
#else
#if KELPIE_SIMD_BACKEND == 2
  namespace backend = avx2;
#else
  namespace backend = sse2;
#endif
  // Column blocks of up to 8 registers, each swept over all rows; the
  // per-element operation order is the reference's either way.
  constexpr size_t kWide = 8 * backend::kAxpyRowsLanes;
  size_t col = 0;
  for (; col + kWide <= cols; col += kWide) {
    backend::kAxpyRowsBlocks[7](matrix + col, rows, cols, coeffs, skip_below,
                                out + col);
  }
  const size_t regs = (cols - col) / backend::kAxpyRowsLanes;
  if (regs > 0) {
    backend::kAxpyRowsBlocks[regs - 1](matrix + col, rows, cols, coeffs,
                                       skip_below, out + col);
    col += regs * backend::kAxpyRowsLanes;
  }
  if (col < cols) {
    AxpyRowsColumns(matrix, rows, cols, col, cols, coeffs, skip_below, out);
  }
#endif
}

void AdagradRowStep(float* param, float* accum, const float* grad, size_t n,
                    float lr, float eps) {
#if KELPIE_SIMD_BACKEND == 2
  avx2::AdagradRowStep(param, accum, grad, n, lr, eps);
#elif KELPIE_SIMD_BACKEND == 1
  sse2::AdagradRowStep(param, accum, grad, n, lr, eps);
#else
  scalar::AdagradRowStep(param, accum, grad, n, lr, eps);
#endif
}

void AdagradCandidateRowStep(float* param, float* accum, const float* query,
                             float coeff, size_t n, float lr, float eps,
                             float* out) {
#if KELPIE_SIMD_BACKEND == 2
  avx2::AdagradCandidateRowStep(param, accum, query, coeff, n, lr, eps, out);
#elif KELPIE_SIMD_BACKEND == 1
  sse2::AdagradCandidateRowStep(param, accum, query, coeff, n, lr, eps, out);
#else
  scalar::AdagradCandidateRowStep(param, accum, query, coeff, n, lr, eps,
                                  out);
#endif
}

}  // namespace simd
}  // namespace kelpie
