#ifndef KELPIE_MATH_SIMD_H_
#define KELPIE_MATH_SIMD_H_

#include <cstddef>
#include <span>

namespace kelpie {
namespace simd {

/// Vectorized BLAS-1/2 kernels with a *lane-determinism contract*: every
/// backend (scalar, SSE2, AVX2) produces bit-identical floats because they
/// all commit to the same fixed reduction order (DESIGN.md §11).
///
/// The contract, for every reducing kernel over n elements:
///  - element i contributes its term to virtual lane `i & 7`, in increasing
///    i order within the lane (8 virtual accumulator lanes regardless of
///    the physical register width: AVX2 maps them onto one 256-bit
///    register, SSE2 onto two 128-bit registers, scalar onto a float[8]);
///  - each term is a separately rounded multiply followed by a separately
///    rounded add — never an FMA (the module is compiled with
///    -ffp-contract=off so the compiler cannot fuse them either);
///  - the 8 lane sums reduce in the fixed tree
///    ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).
///
/// Element-wise kernels (Axpy, Scale, AxpyRows and the Adagrad steps) have
/// no reduction and are trivially bit-identical across backends: every
/// operation they use, sqrt and div included, is correctly rounded.
///
/// The backend is chosen at compile time by the KELPIE_SIMD CMake option
/// (auto|avx2|sse2|off); one binary contains exactly one backend plus the
/// scalar reference, which is always compiled so tests can assert bitwise
/// equivalence in-process.

enum class Backend { kScalar, kSse2, kAvx2 };

/// The backend this binary was compiled with.
Backend ActiveBackend();

/// "scalar", "sse2", or "avx2".
const char* BackendName();

/// Inner product of `a` and `b` (equal lengths).
float Dot(std::span<const float> a, std::span<const float> b);

/// Squared Euclidean distance between `a` and `b`.
float SquaredDistance(std::span<const float> a, std::span<const float> b);

/// L1 distance between `a` and `b`.
float L1Distance(std::span<const float> a, std::span<const float> b);

/// y += alpha * x.
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void Scale(std::span<float> x, float alpha);

/// Row-major matrix-vector product: out[r] = Dot(row r of `matrix`, x) for
/// r in [0, rows). Blocked over rows so candidate sweeps share the loads of
/// `x`; each row's result is bit-identical to a standalone Dot call.
void GemvRowMajor(const float* matrix, size_t rows, size_t cols,
                  const float* x, float* out);

/// out[r] = SquaredDistance(row r of `matrix`, x) — the distance-model
/// (TransE/RotatE) counterpart of GemvRowMajor, same blocking and the same
/// per-row bitwise-equivalence guarantee.
void SquaredDistanceRows(const float* matrix, size_t rows, size_t cols,
                         const float* x, float* out);

/// Transposed sweep: out += coeffs[r] * (row r of `matrix`) for r in
/// increasing order, skipping rows with |coeffs[r]| < skip_below (pass 0 to
/// skip none). Each out[i] sees the same separately rounded mul-then-add
/// sequence as one Axpy call per kept row; the vector backends only keep
/// `out` in registers across the rows.
void AxpyRows(const float* matrix, size_t rows, size_t cols,
              const float* coeffs, float skip_below, float* out);

/// One Adagrad step over n elements (DESIGN.md §11, optimizer steps):
///   accum[i] += grad[i] * grad[i];
///   param[i] -= (lr * grad[i]) / (sqrt(accum[i]) + eps).
/// Element-wise with IEEE (correctly rounded) sqrt and div and no FMA, so
/// every backend produces the same bits.
void AdagradRowStep(float* param, float* accum, const float* grad, size_t n,
                    float lr, float eps);

/// Fused 1-N candidate row: the AdagradRowStep of `param` with gradient
/// g[i] = coeff * query[i], then out[i] += coeff * param[i] (the updated
/// value) — bit-identical to forming g, calling AdagradRowStep and then
/// Axpy(coeff, param, out), in one pass over the row.
void AdagradCandidateRowStep(float* param, float* accum, const float* query,
                             float coeff, size_t n, float lr, float eps,
                             float* out);

/// x[i] *= y[i] (equal lengths): the dropout mask pass.
void Mul(std::span<float> x, std::span<const float> y);

/// ReLU in place: x[i] = +0 where x[i] < 0. -0.0 and NaN pass through
/// unchanged, exactly as `if (v < 0) v = 0` leaves them.
void ReluInPlace(float* x, size_t n);

/// ReLU backward from the activations: grad[i] = +0 where
/// activations[i] <= 0 (NaN activations keep their gradient).
void ReluBackward(const float* activations, float* grad, size_t n);

/// Shape of a single-input-channel 'valid' convolution (ml/conv2d.h):
/// an in_h x in_w image, `channels` kernels of kernel_h x kernel_w.
struct ConvShape {
  size_t in_h = 0, in_w = 0, kernel_h = 0, kernel_w = 0, channels = 0;
  size_t out_h() const { return in_h - kernel_h + 1; }
  size_t out_w() const { return in_w - kernel_w + 1; }
  size_t taps() const { return kernel_h * kernel_w; }
};

/// Convolution forward, channel-major output (DESIGN.md §11.5):
///   out[oc][y][x] = b[oc], then += w[oc][ky][kx] * in[y+ky][x+kx] for the
///   taps in (ky, kx) ascending order, each a separately rounded
///   mul-then-add. `weights` is channels x taps, row-major.
void Conv2dForward(const ConvShape& shape, const float* input,
                   const float* weights, const float* bias, float* output);

/// Convolution backward; adds into any non-null gradient output. Terms with
/// grad_output exactly ±0 are skipped (never added as ±0). Per element:
/// grad_weights[oc][k] and grad_bias[oc] take their terms over (y, x)
/// ascending; grad_input[j] takes them over oc ascending, then (y, x)
/// ascending, i.e. (ky, kx) descending.
void Conv2dBackward(const ConvShape& shape, const float* input,
                    const float* weights, const float* grad_output,
                    float* grad_weights, float* grad_bias, float* grad_input);

/// Reference implementations of every kernel above, written directly
/// against the lane contract with plain scalar code. Always compiled —
/// the dispatching kernels must match them bit for bit on any backend
/// (kernel_equivalence_test).
namespace scalar {
float Dot(std::span<const float> a, std::span<const float> b);
float SquaredDistance(std::span<const float> a, std::span<const float> b);
float L1Distance(std::span<const float> a, std::span<const float> b);
void Axpy(float alpha, std::span<const float> x, std::span<float> y);
void Scale(std::span<float> x, float alpha);
void GemvRowMajor(const float* matrix, size_t rows, size_t cols,
                  const float* x, float* out);
void SquaredDistanceRows(const float* matrix, size_t rows, size_t cols,
                         const float* x, float* out);
void AxpyRows(const float* matrix, size_t rows, size_t cols,
              const float* coeffs, float skip_below, float* out);
void AdagradRowStep(float* param, float* accum, const float* grad, size_t n,
                    float lr, float eps);
void AdagradCandidateRowStep(float* param, float* accum, const float* query,
                             float coeff, size_t n, float lr, float eps,
                             float* out);
void Mul(std::span<float> x, std::span<const float> y);
void ReluInPlace(float* x, size_t n);
void ReluBackward(const float* activations, float* grad, size_t n);
void Conv2dForward(const ConvShape& shape, const float* input,
                   const float* weights, const float* bias, float* output);
void Conv2dBackward(const ConvShape& shape, const float* input,
                    const float* weights, const float* grad_output,
                    float* grad_weights, float* grad_bias, float* grad_input);
}  // namespace scalar

}  // namespace simd
}  // namespace kelpie

#endif  // KELPIE_MATH_SIMD_H_
