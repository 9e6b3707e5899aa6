#include "ml/conv2d.h"

#include <limits>

#include "common/logging.h"
#include "math/simd.h"
#include "math/vec.h"
#include "ml/embedding_table.h"

namespace kelpie {

Conv2d::Conv2d(size_t in_h, size_t in_w, size_t kernel_h, size_t kernel_w,
               size_t out_channels)
    : in_h_(in_h),
      in_w_(in_w),
      kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      out_channels_(out_channels),
      weights_(out_channels, kernel_h * kernel_w),
      bias_(out_channels, 0.0f) {
  KELPIE_CHECK(kernel_h <= in_h && kernel_w <= in_w);
}

void Conv2d::Init(Rng& rng) {
  for (size_t oc = 0; oc < out_channels_; ++oc) {
    InitRow(weights_.Row(oc), InitScheme::kXavierUniform, 0.0, rng,
            kernel_h_ * kernel_w_, out_h() * out_w());
  }
  std::fill(bias_.begin(), bias_.end(), 0.0f);
}

simd::ConvShape Conv2d::Shape() const {
  return {in_h_, in_w_, kernel_h_, kernel_w_, out_channels_};
}

void Conv2d::Forward(std::span<const float> input,
                     std::span<float> output) const {
  KELPIE_DCHECK(input.size() == in_h_ * in_w_);
  KELPIE_DCHECK(output.size() == OutputSize());
  simd::Conv2dForward(Shape(), input.data(), weights_.Data().data(),
                      bias_.data(), output.data());
}

void Conv2d::Backward(std::span<const float> input,
                      std::span<const float> grad_output,
                      std::span<float> grad_weights,
                      std::span<float> grad_bias,
                      std::span<float> grad_input) const {
  KELPIE_DCHECK(input.size() == in_h_ * in_w_);
  KELPIE_DCHECK(grad_output.size() == OutputSize());
  auto or_null = [](std::span<float> s) {
    return s.empty() ? nullptr : s.data();
  };
  simd::Conv2dBackward(Shape(), input.data(), weights_.Data().data(),
                       grad_output.data(), or_null(grad_weights),
                       or_null(grad_bias), or_null(grad_input));
}

DenseLayer::DenseLayer(size_t in_size, size_t out_size)
    : in_size_(in_size),
      out_size_(out_size),
      weights_(out_size, in_size),
      bias_(out_size, 0.0f) {}

void DenseLayer::Init(Rng& rng) {
  for (size_t o = 0; o < out_size_; ++o) {
    InitRow(weights_.Row(o), InitScheme::kXavierUniform, 0.0, rng, in_size_,
            out_size_);
  }
  std::fill(bias_.begin(), bias_.end(), 0.0f);
}

void DenseLayer::Forward(std::span<const float> input,
                         std::span<float> output) const {
  KELPIE_DCHECK(input.size() == in_size_);
  KELPIE_DCHECK(output.size() == out_size_);
  // Blocked gemv over the weight rows; bias_[o] + dot == dot + bias_[o]
  // (float add is commutative), so this matches the per-row form bit for
  // bit.
  simd::GemvRowMajor(weights_.Data().data(), out_size_, in_size_,
                     input.data(), output.data());
  simd::Axpy(1.0f, bias_, output);
}

void DenseLayer::Backward(std::span<const float> input,
                          std::span<const float> grad_output,
                          std::span<float> grad_weights,
                          std::span<float> grad_bias,
                          std::span<float> grad_input) const {
  KELPIE_DCHECK(grad_output.size() == out_size_);
  if (!grad_weights.empty() || !grad_bias.empty()) {
    for (size_t o = 0; o < out_size_; ++o) {
      const float g = grad_output[o];
      if (g == 0.0f) continue;
      if (!grad_bias.empty()) grad_bias[o] += g;
      if (!grad_weights.empty()) {
        simd::Axpy(g, input, grad_weights.subspan(o * in_size_, in_size_));
      }
    }
  }
  if (!grad_input.empty()) {
    // grad_input += g[o] * W[o] over o ascending, skipping exactly the
    // g[o] == ±0 rows: only ±0 is smaller in magnitude than denorm_min.
    simd::AxpyRows(weights_.Data().data(), out_size_, in_size_,
                   grad_output.data(), std::numeric_limits<float>::denorm_min(),
                   grad_input.data());
  }
}

void ReluInPlace(std::span<float> x) { simd::ReluInPlace(x.data(), x.size()); }

void ReluBackward(std::span<const float> activations, std::span<float> grad) {
  KELPIE_DCHECK(activations.size() == grad.size());
  simd::ReluBackward(activations.data(), grad.data(), grad.size());
}

}  // namespace kelpie
