#include "ml/conv2d.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.h"
#include "math/vec.h"

namespace kelpie {
namespace {

TEST(Conv2dTest, OutputShape) {
  Conv2d conv(8, 8, 3, 3, 4);
  EXPECT_EQ(conv.out_h(), 6u);
  EXPECT_EQ(conv.out_w(), 6u);
  EXPECT_EQ(conv.OutputSize(), 4u * 36u);
}

TEST(Conv2dTest, IdentityKernelCopiesInput) {
  // 1x1 kernel with weight 1 reproduces the input per channel.
  Conv2d conv(2, 3, 1, 1, 1);
  conv.weights().At(0, 0) = 1.0f;
  std::vector<float> input{1, 2, 3, 4, 5, 6};
  std::vector<float> output(conv.OutputSize());
  conv.Forward(input, output);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(output[i], input[i]);
  }
}

TEST(Conv2dTest, KnownConvolutionValue) {
  // 2x2 input, 2x2 all-ones kernel: output = sum of input + bias.
  Conv2d conv(2, 2, 2, 2, 1);
  for (size_t i = 0; i < 4; ++i) conv.weights().At(0, i) = 1.0f;
  conv.bias()[0] = 0.5f;
  std::vector<float> input{1, 2, 3, 4};
  std::vector<float> output(1);
  conv.Forward(input, output);
  EXPECT_FLOAT_EQ(output[0], 10.5f);
}

// Finite-difference gradient check for the convolution backward pass.
TEST(Conv2dTest, BackwardMatchesFiniteDifferences) {
  Rng rng(3);
  Conv2d conv(5, 6, 3, 3, 2);
  conv.Init(rng);
  std::vector<float> input(30);
  for (float& v : input) v = static_cast<float>(rng.Normal(0.0, 1.0));
  // Scalar loss: L = sum(output * coeff).
  std::vector<float> coeff(conv.OutputSize());
  for (float& v : coeff) v = static_cast<float>(rng.Normal(0.0, 1.0));

  auto loss = [&]() {
    std::vector<float> out(conv.OutputSize());
    conv.Forward(input, out);
    float acc = 0.0f;
    for (size_t i = 0; i < out.size(); ++i) acc += out[i] * coeff[i];
    return acc;
  };

  std::vector<float> gw(conv.weights().size(), 0.0f);
  std::vector<float> gb(conv.bias().size(), 0.0f);
  std::vector<float> gi(input.size(), 0.0f);
  conv.Backward(input, coeff, gw, gb, gi);

  const float h = 1e-3f;
  // Check a few input gradients.
  for (size_t idx : {0u, 7u, 29u}) {
    float saved = input[idx];
    input[idx] = saved + h;
    float up = loss();
    input[idx] = saved - h;
    float down = loss();
    input[idx] = saved;
    EXPECT_NEAR(gi[idx], (up - down) / (2 * h), 5e-2) << "input " << idx;
  }
  // Check a few weight gradients.
  for (size_t idx : {0u, 5u, 17u}) {
    float& w = conv.weights().Data()[idx];
    float saved = w;
    w = saved + h;
    float up = loss();
    w = saved - h;
    float down = loss();
    w = saved;
    EXPECT_NEAR(gw[idx], (up - down) / (2 * h), 5e-2) << "weight " << idx;
  }
  // Check bias gradients.
  for (size_t idx : {0u, 1u}) {
    float saved = conv.bias()[idx];
    conv.bias()[idx] = saved + h;
    float up = loss();
    conv.bias()[idx] = saved - h;
    float down = loss();
    conv.bias()[idx] = saved;
    EXPECT_NEAR(gb[idx], (up - down) / (2 * h), 5e-2) << "bias " << idx;
  }
}

TEST(Conv2dTest, BackwardSkipsEmptySpans) {
  Rng rng(5);
  Conv2d conv(4, 4, 3, 3, 1);
  conv.Init(rng);
  std::vector<float> input(16, 1.0f);
  std::vector<float> grad_out(conv.OutputSize(), 1.0f);
  std::vector<float> gi(16, 0.0f);
  // No weight/bias buffers: must not crash, input grad still computed.
  conv.Backward(input, grad_out, {}, {}, gi);
  float total = 0.0f;
  for (float v : gi) total += std::fabs(v);
  EXPECT_GT(total, 0.0f);
}

TEST(DenseLayerTest, ForwardIsAffine) {
  DenseLayer fc(2, 2);
  fc.weights().At(0, 0) = 1.0f;
  fc.weights().At(0, 1) = 2.0f;
  fc.weights().At(1, 0) = -1.0f;
  fc.weights().At(1, 1) = 0.5f;
  fc.bias() = {0.1f, -0.1f};
  std::vector<float> in{3.0f, 4.0f};
  std::vector<float> out(2);
  fc.Forward(in, out);
  EXPECT_FLOAT_EQ(out[0], 11.1f);
  EXPECT_FLOAT_EQ(out[1], -1.1f);
}

TEST(DenseLayerTest, BackwardMatchesFiniteDifferences) {
  Rng rng(7);
  DenseLayer fc(5, 3);
  fc.Init(rng);
  std::vector<float> input(5);
  for (float& v : input) v = static_cast<float>(rng.Normal(0.0, 1.0));
  std::vector<float> coeff(3);
  for (float& v : coeff) v = static_cast<float>(rng.Normal(0.0, 1.0));

  auto loss = [&]() {
    std::vector<float> out(3);
    fc.Forward(input, out);
    return out[0] * coeff[0] + out[1] * coeff[1] + out[2] * coeff[2];
  };

  std::vector<float> gw(fc.weights().size(), 0.0f);
  std::vector<float> gb(3, 0.0f);
  std::vector<float> gi(5, 0.0f);
  fc.Backward(input, coeff, gw, gb, gi);

  const float h = 1e-3f;
  for (size_t idx = 0; idx < 5; ++idx) {
    float saved = input[idx];
    input[idx] = saved + h;
    float up = loss();
    input[idx] = saved - h;
    float down = loss();
    input[idx] = saved;
    EXPECT_NEAR(gi[idx], (up - down) / (2 * h), 5e-2);
  }
  for (size_t idx : {0u, 7u, 14u}) {
    float& w = fc.weights().Data()[idx];
    float saved = w;
    w = saved + h;
    float up = loss();
    w = saved - h;
    float down = loss();
    w = saved;
    EXPECT_NEAR(gw[idx], (up - down) / (2 * h), 5e-2);
  }
  for (size_t idx = 0; idx < 3; ++idx) {
    EXPECT_NEAR(gb[idx], coeff[idx], 1e-5);
  }
}

TEST(DenseLayerTest, BackwardMatchesPerElementLoopBitForBit) {
  // The row-wise kernels must reproduce the per-element loop exactly: o
  // ascending, g[o] == ±0 rows skipped (so -0 accumulators stay -0), each
  // term a separately rounded multiply then add.
  Rng rng(8);
  for (size_t in_size : {1u, 7u, 8u, 13u, 64u, 288u}) {
    DenseLayer fc(in_size, 11);
    fc.Init(rng);
    std::vector<float> input(in_size), g(11);
    for (float& v : input) v = static_cast<float>(rng.Normal(0.0, 1.0));
    for (float& v : g) v = static_cast<float>(rng.Normal(0.0, 1.0));
    g[0] = 0.0f;
    g[3] = -0.0f;
    g[4] = std::numeric_limits<float>::denorm_min();
    g[7] = 0.0f;
    std::vector<float> gw0(fc.weights().size(), -0.0f), gb0(11, -0.0f),
        gi0(in_size, -0.0f);
    for (size_t i = 0; i < gw0.size(); i += 3) gw0[i] = 0.5f;

    std::vector<float> gw = gw0, gb = gb0, gi = gi0;
    fc.Backward(input, g, gw, gb, gi);
    std::vector<float> gw_ref = gw0, gb_ref = gb0, gi_ref = gi0;
    for (size_t o = 0; o < 11; ++o) {
      if (g[o] == 0.0f) continue;
      gb_ref[o] += g[o];
      for (size_t i = 0; i < in_size; ++i) {
        gw_ref[o * in_size + i] += g[o] * input[i];
        gi_ref[i] += g[o] * fc.weights().At(o, i);
      }
    }
    auto bits = [](const std::vector<float>& v) {
      std::vector<uint32_t> out;
      for (float f : v) out.push_back(std::bit_cast<uint32_t>(f));
      return out;
    };
    EXPECT_EQ(bits(gw), bits(gw_ref)) << "in_size=" << in_size;
    EXPECT_EQ(bits(gb), bits(gb_ref)) << "in_size=" << in_size;
    EXPECT_EQ(bits(gi), bits(gi_ref)) << "in_size=" << in_size;

    std::vector<float> gi_only = gi0;
    fc.Backward(input, g, {}, {}, gi_only);
    EXPECT_EQ(bits(gi_only), bits(gi_ref)) << "in_size=" << in_size;
  }
}

TEST(ReluTest, InPlaceClampsNegatives) {
  std::vector<float> x{-1.0f, 0.0f, 2.0f};
  ReluInPlace(x);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
  EXPECT_FLOAT_EQ(x[1], 0.0f);
  EXPECT_FLOAT_EQ(x[2], 2.0f);
}

TEST(ReluTest, BackwardMasksByActivation) {
  std::vector<float> act{0.0f, 1.0f, 0.0f};
  std::vector<float> grad{5.0f, 5.0f, -5.0f};
  ReluBackward(act, grad);
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[1], 5.0f);
  EXPECT_FLOAT_EQ(grad[2], 0.0f);
}

}  // namespace
}  // namespace kelpie
