#ifndef KELPIE_ML_CONV2D_H_
#define KELPIE_ML_CONV2D_H_

#include <cstddef>
#include <span>
#include <vector>

#include "math/matrix.h"
#include "math/rng.h"
#include "math/simd.h"

namespace kelpie {

/// A single-input-channel 2D convolution with 'valid' padding and a
/// hand-written backward pass. This is the only neural layer ConvE needs:
/// the stacked head/relation embedding image is one channel, and the layer
/// produces `out_channels` feature maps.
///
/// Weight layout: `weights.Row(oc)` holds the oc-th kernel, row-major
/// (kernel_h * kernel_w floats). One bias per output channel.
class Conv2d {
 public:
  Conv2d() = default;

  /// Creates a layer for inputs of size `in_h` x `in_w`.
  Conv2d(size_t in_h, size_t in_w, size_t kernel_h, size_t kernel_w,
         size_t out_channels);

  /// Xavier-uniform init of weights; zero biases.
  void Init(Rng& rng);

  size_t in_h() const { return in_h_; }
  size_t in_w() const { return in_w_; }
  size_t out_h() const { return in_h_ - kernel_h_ + 1; }
  size_t out_w() const { return in_w_ - kernel_w_ + 1; }
  size_t out_channels() const { return out_channels_; }
  /// Total number of floats produced by Forward().
  size_t OutputSize() const { return out_channels_ * out_h() * out_w(); }

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }

  /// Computes the convolution. `input` must be in_h*in_w floats; `output`
  /// must be OutputSize() floats, laid out channel-major.
  void Forward(std::span<const float> input, std::span<float> output) const;

  /// Backpropagates `grad_output` (same layout as Forward's output).
  /// Accumulates into `grad_weights` (same shape as weights), `grad_bias`
  /// and `grad_input` (in_h*in_w); all must be pre-sized, contents are
  /// added to (callers zero them per batch). Any of the grad outputs may be
  /// empty spans to skip that computation.
  void Backward(std::span<const float> input,
                std::span<const float> grad_output,
                std::span<float> grad_weights, std::span<float> grad_bias,
                std::span<float> grad_input) const;

 private:
  simd::ConvShape Shape() const;

  size_t in_h_ = 0, in_w_ = 0;
  size_t kernel_h_ = 0, kernel_w_ = 0;
  size_t out_channels_ = 0;
  Matrix weights_;            // out_channels x (kernel_h * kernel_w)
  std::vector<float> bias_;   // out_channels
};

/// Fully connected layer out = W * in + b with hand-written backward.
class DenseLayer {
 public:
  DenseLayer() = default;
  DenseLayer(size_t in_size, size_t out_size);

  void Init(Rng& rng);

  size_t in_size() const { return in_size_; }
  size_t out_size() const { return out_size_; }

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }

  /// output = W * input + b. `output` must be out_size floats.
  void Forward(std::span<const float> input, std::span<float> output) const;

  /// Accumulates gradients; empty spans skip the corresponding output.
  /// `grad_weights` is row-major out_size x in_size.
  void Backward(std::span<const float> input,
                std::span<const float> grad_output,
                std::span<float> grad_weights, std::span<float> grad_bias,
                std::span<float> grad_input) const;

 private:
  size_t in_size_ = 0, out_size_ = 0;
  Matrix weights_;           // out_size x in_size
  std::vector<float> bias_;  // out_size
};

/// In-place ReLU (x < 0 becomes +0); the mask is recoverable from the
/// activations.
void ReluInPlace(std::span<float> x);

/// Backward of ReLU given the *activations* (post-ReLU values): zeroes the
/// gradient where the activation is zero.
void ReluBackward(std::span<const float> activations, std::span<float> grad);

}  // namespace kelpie

#endif  // KELPIE_ML_CONV2D_H_
