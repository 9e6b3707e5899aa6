#include "math/simd.h"

#include <algorithm>
#include <cmath>
#include <vector>

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

/// The reference convolution backward over channels [oc_begin, oc_end):
/// scalar::Conv2dBackward, and the vector backends' weight/bias gradient
/// for the channels left over after their full-register channel blocks.
void Conv2dBackwardChannels(const ConvShape& shape, size_t oc_begin,
                            size_t oc_end, const float* input,
                            const float* weights, const float* grad_output,
                            float* grad_weights, float* grad_bias,
                            float* grad_input) {
  const size_t oh = shape.out_h();
  const size_t ow = shape.out_w();
  const size_t taps = shape.taps();
  for (size_t oc = oc_begin; oc < oc_end; ++oc) {
    const float* kernel = weights + oc * taps;
    const float* g_map = grad_output + oc * oh * ow;
    for (size_t y = 0; y < oh; ++y) {
      for (size_t x = 0; x < ow; ++x) {
        const float g = g_map[y * ow + x];
        if (g == 0.0f) continue;
        if (grad_bias != nullptr) grad_bias[oc] += g;
        for (size_t ky = 0; ky < shape.kernel_h; ++ky) {
          const size_t in_off = (y + ky) * shape.in_w + x;
          const size_t k_off = ky * shape.kernel_w;
          for (size_t kx = 0; kx < shape.kernel_w; ++kx) {
            if (grad_weights != nullptr) {
              grad_weights[oc * taps + k_off + kx] += g * input[in_off + kx];
            }
            if (grad_input != nullptr) {
              grad_input[in_off + kx] += g * kernel[k_off + kx];
            }
          }
        }
      }
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

void Mul(std::span<float> x, std::span<const float> y) {
  KELPIE_DCHECK(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] *= y[i];
  }
}

void ReluInPlace(float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

void ReluBackward(const float* activations, float* grad, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (activations[i] <= 0.0f) grad[i] = 0.0f;
  }
}

void Conv2dForward(const ConvShape& shape, const float* input,
                   const float* weights, const float* bias, float* output) {
  const size_t oh = shape.out_h();
  const size_t ow = shape.out_w();
  size_t out_idx = 0;
  for (size_t oc = 0; oc < shape.channels; ++oc) {
    const float* kernel = weights + oc * shape.taps();
    for (size_t y = 0; y < oh; ++y) {
      for (size_t x = 0; x < ow; ++x) {
        float acc = bias[oc];
        for (size_t ky = 0; ky < shape.kernel_h; ++ky) {
          const float* in_row = input + (y + ky) * shape.in_w + x;
          const float* k_row = kernel + ky * shape.kernel_w;
          for (size_t kx = 0; kx < shape.kernel_w; ++kx) {
            acc += k_row[kx] * in_row[kx];
          }
        }
        output[out_idx++] = acc;
      }
    }
  }
}

void Conv2dBackward(const ConvShape& shape, const float* input,
                    const float* weights, const float* grad_output,
                    float* grad_weights, float* grad_bias,
                    float* grad_input) {
  Conv2dBackwardChannels(shape, 0, shape.channels, input, weights,
                         grad_output, grad_weights, grad_bias, grad_input);
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
// Network kernels (Mul, ReLU, convolution), written once over the register
// ops of the active vector backend.
// ---------------------------------------------------------------------------

#if KELPIE_SIMD_BACKEND > 0

namespace {
namespace net {

#if KELPIE_SIMD_BACKEND == 2
/// The register ops the kernels below are written in: one 256-bit register.
struct V {
  using T = __m256;
  static constexpr size_t kWidth = 8;
  static T Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, T v) { _mm256_storeu_ps(p, v); }
  static T Set1(float x) { return _mm256_set1_ps(x); }
  static T Add(T a, T b) { return _mm256_add_ps(a, b); }
  static T Mul(T a, T b) { return _mm256_mul_ps(a, b); }
  /// All-ones where v is not ±0, NaN included: the reference's `g != 0`.
  static T NonZero(T v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_NEQ_UQ);
  }
  /// All-ones where v < 0 (false for -0 and NaN).
  static T Negative(T v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ);
  }
  /// All-ones where v <= 0 (false for NaN).
  static T NotPositive(T v) {
    return _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LE_OQ);
  }
  /// mask ? a : b.
  static T Select(T mask, T a, T b) { return _mm256_blendv_ps(b, a, mask); }
  /// mask ? +0 : v.
  static T ZeroWhere(T mask, T v) { return _mm256_andnot_ps(mask, v); }
};
#else
/// The register ops the kernels below are written in: one 128-bit register.
struct V {
  using T = __m128;
  static constexpr size_t kWidth = 4;
  static T Load(const float* p) { return _mm_loadu_ps(p); }
  static void Store(float* p, T v) { _mm_storeu_ps(p, v); }
  static T Set1(float x) { return _mm_set1_ps(x); }
  static T Add(T a, T b) { return _mm_add_ps(a, b); }
  static T Mul(T a, T b) { return _mm_mul_ps(a, b); }
  static T NonZero(T v) { return _mm_cmpneq_ps(v, _mm_setzero_ps()); }
  static T Negative(T v) { return _mm_cmplt_ps(v, _mm_setzero_ps()); }
  static T NotPositive(T v) { return _mm_cmple_ps(v, _mm_setzero_ps()); }
  static T Select(T mask, T a, T b) {
    return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
  }
  static T ZeroWhere(T mask, T v) { return _mm_andnot_ps(mask, v); }
};
#endif

using T = V::T;
constexpr size_t kW = V::kWidth;

/// acc + term in the lanes where `g` is not ±0, acc unchanged elsewhere:
/// the skipped lanes add -0, and x + -0 is x for every x (signed zeros and
/// NaN included, under the default rounding mode), so a skipped term never
/// turns -0 into +0. Masking the term, not the sum, keeps the select off
/// the accumulator's dependency chain.
inline T MaskedAdd(T acc, T g, T term) {
  return V::Add(acc, V::Select(V::NonZero(g), term, V::Set1(-0.0f)));
}

void Mul(float* x, const float* y, size_t n) {
  size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V::Store(x + i, V::Mul(V::Load(x + i), V::Load(y + i)));
  }
  scalar::Mul(std::span<float>(x + i, n - i),
              std::span<const float>(y + i, n - i));
}

void ReluInPlace(float* x, size_t n) {
  size_t i = 0;
  for (; i + kW <= n; i += kW) {
    const T v = V::Load(x + i);
    V::Store(x + i, V::ZeroWhere(V::Negative(v), v));
  }
  scalar::ReluInPlace(x + i, n - i);
}

void ReluBackward(const float* activations, float* grad, size_t n) {
  size_t i = 0;
  for (; i + kW <= n; i += kW) {
    V::Store(grad + i, V::ZeroWhere(V::NotPositive(V::Load(activations + i)),
                                    V::Load(grad + i)));
  }
  scalar::ReluBackward(activations + i, grad + i, n - i);
}

/// Forward across output positions. The flat input index t = y*in_w + x
/// of output (y, x) reads input[t + ky*in_w + kx] for tap (ky, kx), so kW
/// consecutive t share every tap's load; lanes with x >= out_w compute
/// values that are dropped when the rows are copied out. Four registers go
/// at a time, so the nine-deep add chains of a 3x3 kernel overlap.
void Conv2dForward(const ConvShape& shape, const float* input,
                   const float* weights, const float* bias, float* output) {
  const size_t oh = shape.out_h();
  const size_t ow = shape.out_w();
  const size_t span = (oh - 1) * shape.in_w + ow;
  if (span < kW) {
    scalar::Conv2dForward(shape, input, weights, bias, output);
    return;
  }
  thread_local std::vector<float> flat;
  flat.resize(span);
  // A register that would pass the end of the span is shifted back to end
  // at it; the lanes it shares with another register get the same values.
  auto start = [&](size_t t) { return std::min(t, span - kW); };
  for (size_t oc = 0; oc < shape.channels; ++oc) {
    const float* kernel = weights + oc * shape.taps();
    for (size_t t0 = 0; t0 < span; t0 += 4 * kW) {
      const size_t t[4] = {start(t0), start(t0 + kW), start(t0 + 2 * kW),
                           start(t0 + 3 * kW)};
      T acc0 = V::Set1(bias[oc]);
      T acc1 = acc0, acc2 = acc0, acc3 = acc0;
      for (size_t ky = 0; ky < shape.kernel_h; ++ky) {
        const float* k_row = kernel + ky * shape.kernel_w;
        for (size_t kx = 0; kx < shape.kernel_w; ++kx) {
          const T w = V::Set1(k_row[kx]);
          const float* in = input + ky * shape.in_w + kx;
          acc0 = V::Add(acc0, V::Mul(w, V::Load(in + t[0])));
          acc1 = V::Add(acc1, V::Mul(w, V::Load(in + t[1])));
          acc2 = V::Add(acc2, V::Mul(w, V::Load(in + t[2])));
          acc3 = V::Add(acc3, V::Mul(w, V::Load(in + t[3])));
        }
      }
      V::Store(flat.data() + t[0], acc0);
      V::Store(flat.data() + t[1], acc1);
      V::Store(flat.data() + t[2], acc2);
      V::Store(flat.data() + t[3], acc3);
    }
    float* out = output + oc * oh * ow;
    for (size_t y = 0; y < oh; ++y) {
      const float* row = flat.data() + y * shape.in_w;
      for (size_t x = 0; x < ow; ++x) *out++ = row[x];
    }
  }
}

/// Weight and bias gradients across kW channels at a time: lane l is
/// channel oc0 + l's accumulator and takes the positions in ascending
/// order, like the reference.
void Conv2dWeightGrads(const ConvShape& shape, size_t oc0, const float* input,
                       const float* grad_output, float* grad_weights,
                       float* grad_bias) {
  const size_t oh = shape.out_h();
  const size_t ow = shape.out_w();
  const size_t positions = oh * ow;
  const size_t taps = shape.taps();
  // grad_output of the block, transposed to positions x kW.
  thread_local std::vector<float> g_t;
  g_t.resize(positions * kW);
  for (size_t l = 0; l < kW; ++l) {
    const float* g_map = grad_output + (oc0 + l) * positions;
    for (size_t p = 0; p < positions; ++p) g_t[p * kW + l] = g_map[p];
  }
  if (grad_bias != nullptr) {
    T acc = V::Load(grad_bias + oc0);
    for (size_t p = 0; p < positions; ++p) {
      const T g = V::Load(g_t.data() + p * kW);
      acc = MaskedAdd(acc, g, g);
    }
    V::Store(grad_bias + oc0, acc);
  }
  if (grad_weights == nullptr) return;
  // kTaps taps at a time, one accumulator each, so the adds of different
  // taps overlap; a short last block repeats its last tap and drops it.
  constexpr size_t kTaps = 3;
  alignas(32) float lanes[kW];
  for (size_t k0 = 0; k0 < taps; k0 += kTaps) {
    T acc[kTaps];
    size_t k_off[kTaps];
#pragma GCC unroll 3
    for (size_t b = 0; b < kTaps; ++b) {
      const size_t k = std::min(k0 + b, taps - 1);
      k_off[b] = (k / shape.kernel_w) * shape.in_w + k % shape.kernel_w;
      for (size_t l = 0; l < kW; ++l) {
        lanes[l] = grad_weights[(oc0 + l) * taps + k];
      }
      acc[b] = V::Load(lanes);
    }
    const float* g = g_t.data();
    for (size_t y = 0; y < oh; ++y) {
      const float* in = input + y * shape.in_w;
      for (size_t x = 0; x < ow; ++x, g += kW) {
        const T gv = V::Load(g);
#pragma GCC unroll 3
        for (size_t b = 0; b < kTaps; ++b) {
          acc[b] = MaskedAdd(acc[b], gv, V::Mul(gv, V::Set1(in[x + k_off[b]])));
        }
      }
    }
    for (size_t b = 0; b < kTaps && k0 + b < taps; ++b) {
      V::Store(lanes, acc[b]);
      for (size_t l = 0; l < kW; ++l) {
        grad_weights[(oc0 + l) * taps + k0 + b] = lanes[l];
      }
    }
  }
}

/// Input gradient across flat input positions j, four registers of kW at
/// a time, held in registers while every term arrives in the reference
/// order: oc ascending, then (ky, kx) descending. Each channel's
/// grad_output is laid out on the input grid, g_pad[lo + y*in_w + x], with
/// zeros elsewhere, so tap (ky, kx) of position j reads
/// g_pad[lo + j - ky*in_w - kx]; positions outside the map read zero and
/// are skipped.
void Conv2dInputGrad(const ConvShape& shape, const float* weights,
                     const float* grad_output, float* grad_input) {
  constexpr size_t kBlock = 4 * kW;
  const size_t oh = shape.out_h();
  const size_t ow = shape.out_w();
  const size_t taps = shape.taps();
  const size_t n = shape.in_h * shape.in_w;
  const size_t n_pad = (n + kBlock - 1) / kBlock * kBlock;
  const size_t lo = (shape.kernel_h - 1) * shape.in_w + shape.kernel_w - 1;
  const size_t row = lo + n_pad;
  thread_local std::vector<float> g_pad, gi;
  g_pad.assign(shape.channels * row, 0.0f);
  for (size_t oc = 0; oc < shape.channels; ++oc) {
    for (size_t y = 0; y < oh; ++y) {
      const float* g_row = grad_output + (oc * oh + y) * ow;
      float* pad_row = g_pad.data() + oc * row + lo + y * shape.in_w;
      for (size_t x = 0; x < ow; ++x) pad_row[x] = g_row[x];
    }
  }
  gi.resize(n_pad);
  std::copy_n(grad_input, n, gi.begin());
  for (size_t j0 = 0; j0 < n_pad; j0 += kBlock) {
    // Four named accumulators (not an array) so they stay in registers.
    float* block = gi.data() + j0;
    T acc0 = V::Load(block);
    T acc1 = V::Load(block + kW);
    T acc2 = V::Load(block + 2 * kW);
    T acc3 = V::Load(block + 3 * kW);
    for (size_t oc = 0; oc < shape.channels; ++oc) {
      const float* kernel = weights + oc * taps;
      const float* g_at = g_pad.data() + oc * row + lo + j0;
      for (size_t ky = shape.kernel_h; ky-- > 0;) {
        for (size_t kx = shape.kernel_w; kx-- > 0;) {
          const T w = V::Set1(kernel[ky * shape.kernel_w + kx]);
          const float* g_tap = g_at - ky * shape.in_w - kx;
          const T g0 = V::Load(g_tap);
          const T g1 = V::Load(g_tap + kW);
          const T g2 = V::Load(g_tap + 2 * kW);
          const T g3 = V::Load(g_tap + 3 * kW);
          acc0 = MaskedAdd(acc0, g0, V::Mul(g0, w));
          acc1 = MaskedAdd(acc1, g1, V::Mul(g1, w));
          acc2 = MaskedAdd(acc2, g2, V::Mul(g2, w));
          acc3 = MaskedAdd(acc3, g3, V::Mul(g3, w));
        }
      }
    }
    V::Store(block, acc0);
    V::Store(block + kW, acc1);
    V::Store(block + 2 * kW, acc2);
    V::Store(block + 3 * kW, acc3);
  }
  std::copy_n(gi.begin(), n, grad_input);
}

void Conv2dBackward(const ConvShape& shape, const float* input,
                    const float* weights, const float* grad_output,
                    float* grad_weights, float* grad_bias,
                    float* grad_input) {
  if (grad_weights != nullptr || grad_bias != nullptr) {
    size_t oc0 = 0;
    for (; oc0 + kW <= shape.channels; oc0 += kW) {
      Conv2dWeightGrads(shape, oc0, input, grad_output, grad_weights,
                        grad_bias);
    }
    Conv2dBackwardChannels(shape, oc0, shape.channels, input, weights,
                           grad_output, grad_weights, grad_bias, nullptr);
  }
  if (grad_input != nullptr) {
    Conv2dInputGrad(shape, weights, grad_output, grad_input);
  }
}

}  // namespace net
}  // namespace

#endif  // KELPIE_SIMD_BACKEND > 0

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

void Mul(std::span<float> x, std::span<const float> y) {
  KELPIE_DCHECK(x.size() == y.size());
#if KELPIE_SIMD_BACKEND > 0
  net::Mul(x.data(), y.data(), x.size());
#else
  scalar::Mul(x, y);
#endif
}

void ReluInPlace(float* x, size_t n) {
#if KELPIE_SIMD_BACKEND > 0
  net::ReluInPlace(x, n);
#else
  scalar::ReluInPlace(x, n);
#endif
}

void ReluBackward(const float* activations, float* grad, size_t n) {
#if KELPIE_SIMD_BACKEND > 0
  net::ReluBackward(activations, grad, n);
#else
  scalar::ReluBackward(activations, grad, n);
#endif
}

void Conv2dForward(const ConvShape& shape, const float* input,
                   const float* weights, const float* bias, float* output) {
#if KELPIE_SIMD_BACKEND > 0
  net::Conv2dForward(shape, input, weights, bias, output);
#else
  scalar::Conv2dForward(shape, input, weights, bias, output);
#endif
}

void Conv2dBackward(const ConvShape& shape, const float* input,
                    const float* weights, const float* grad_output,
                    float* grad_weights, float* grad_bias,
                    float* grad_input) {
#if KELPIE_SIMD_BACKEND > 0
  net::Conv2dBackward(shape, input, weights, grad_output, grad_weights,
                      grad_bias, grad_input);
#else
  scalar::Conv2dBackward(shape, input, weights, grad_output, grad_weights,
                         grad_bias, grad_input);
#endif
}

}  // namespace simd
}  // namespace kelpie
