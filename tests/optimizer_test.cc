#include "ml/optimizer.h"

#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "math/rng.h"
#include "math/simd.h"
#include "ml/checkpoint.h"
#include "models/factory.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

TEST(RowAdagradTest, FirstStepHasUnitScale) {
  // With zero accumulator, step = lr * g / (|g| + eps) = lr * sign(g).
  Matrix params(2, 3);
  RowAdagrad opt(2, 3, /*learning_rate=*/0.5f);
  std::vector<float> grad{1.0f, -2.0f, 0.0f};
  opt.Step(params, 0, grad);
  EXPECT_NEAR(params.At(0, 0), -0.5f, 1e-4);
  EXPECT_NEAR(params.At(0, 1), +0.5f, 1e-4);
  EXPECT_NEAR(params.At(0, 2), 0.0f, 1e-6);
  // Row 1 untouched.
  EXPECT_FLOAT_EQ(params.At(1, 0), 0.0f);
}

TEST(RowAdagradTest, RepeatedGradientsShrinkSteps) {
  Matrix params(1, 1);
  RowAdagrad opt(1, 1, 1.0f);
  std::vector<float> grad{1.0f};
  opt.Step(params, 0, grad);
  float first_step = -params.At(0, 0);
  float before = params.At(0, 0);
  opt.Step(params, 0, grad);
  float second_step = before - params.At(0, 0);
  EXPECT_LT(second_step, first_step);
  EXPECT_NEAR(second_step, first_step / std::sqrt(2.0f), 1e-3);
}

TEST(RowAdagradTest, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 with gradient 2(x - 3).
  Matrix params(1, 1);
  RowAdagrad opt(1, 1, 0.5f);
  for (int i = 0; i < 2000; ++i) {
    std::vector<float> grad{2.0f * (params.At(0, 0) - 3.0f)};
    opt.Step(params, 0, grad);
  }
  EXPECT_NEAR(params.At(0, 0), 3.0f, 0.05);
}

TEST(RowAdagradTest, StepSpanMatchesStepOnSameState) {
  Matrix a(1, 2), b(1, 2);
  RowAdagrad opt_a(1, 2, 0.1f), opt_b(1, 2, 0.1f);
  std::vector<float> grad{0.5f, -0.5f};
  opt_a.Step(a, 0, grad);
  std::vector<float> row(2, 0.0f);
  opt_b.StepSpan(row, 0, grad);
  EXPECT_FLOAT_EQ(a.At(0, 0), row[0]);
  EXPECT_FLOAT_EQ(a.At(0, 1), row[1]);
}

TEST(DenseAdamTest, StepDirectionOpposesGradient) {
  Matrix params(1, 2);
  DenseAdam opt(1, 2, 0.1f);
  std::vector<float> grad{1.0f, -1.0f};
  opt.Step(params, grad);
  EXPECT_LT(params.At(0, 0), 0.0f);
  EXPECT_GT(params.At(0, 1), 0.0f);
}

TEST(DenseAdamTest, FirstStepMagnitudeApproxLearningRate) {
  // Adam's bias correction makes the first step ~lr regardless of gradient
  // scale.
  Matrix params(1, 1);
  DenseAdam opt(1, 1, 0.01f);
  std::vector<float> grad{1234.0f};
  opt.Step(params, grad);
  EXPECT_NEAR(params.At(0, 0), -0.01f, 1e-4);
}

TEST(DenseAdamTest, ConvergesOnQuadratic) {
  Matrix params(1, 1);
  DenseAdam opt(1, 1, 0.05f);
  for (int i = 0; i < 3000; ++i) {
    std::vector<float> grad{2.0f * (params.At(0, 0) + 2.0f)};
    opt.Step(params, grad);
  }
  EXPECT_NEAR(params.At(0, 0), -2.0f, 0.05);
}

TEST(SgdStepTest, AppliesScaledGradient) {
  std::vector<float> params{1.0f, 2.0f};
  std::vector<float> grad{0.5f, -0.5f};
  SgdStep(params, grad, 0.1f);
  EXPECT_FLOAT_EQ(params[0], 0.95f);
  EXPECT_FLOAT_EQ(params[1], 2.05f);
}

// ---------------------------------------------------------------------------
// The Adagrad row steps run the simd kernels (DESIGN.md §11), and the fused
// candidate-row entry point equals its unfused sequence.
// ---------------------------------------------------------------------------

bool BitEqual(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> RandomRow(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  return v;
}

TEST(RowAdagradTest, StepSpanMatchesScalarKernelUnderLrScale) {
  constexpr size_t kCols = 37;
  Rng rng(5);
  RowAdagrad opt(3, kCols, 0.1f);
  opt.set_lr_scale(0.5f);
  std::vector<float> p = RandomRow(kCols, rng);
  std::vector<float> p_ref = p;
  std::vector<float> accum_ref(kCols, 0.0f);
  for (int step = 0; step < 3; ++step) {
    const std::vector<float> grad = RandomRow(kCols, rng);
    opt.StepSpan(p, 1, grad);
    simd::scalar::AdagradRowStep(p_ref.data(), accum_ref.data(), grad.data(),
                                 kCols, 0.1f * 0.5f, 1e-8f);
  }
  EXPECT_TRUE(BitEqual(p, p_ref));
  EXPECT_TRUE(BitEqual(opt.AccumData().subspan(kCols, kCols), accum_ref));
}

TEST(RowAdagradTest, StepCandidateRowEqualsStepThenAxpy) {
  constexpr size_t kRows = 4, kCols = 21;
  Rng rng(6);
  Matrix fused(kRows, kCols), unfused(kRows, kCols);
  for (size_t r = 0; r < kRows; ++r) {
    const std::vector<float> row = RandomRow(kCols, rng);
    std::copy(row.begin(), row.end(), fused.Row(r).begin());
    std::copy(row.begin(), row.end(), unfused.Row(r).begin());
  }
  RowAdagrad opt_fused(kRows, kCols, 0.1f);
  RowAdagrad opt_unfused(kRows, kCols, 0.1f);
  opt_fused.set_lr_scale(0.25f);
  opt_unfused.set_lr_scale(0.25f);
  std::vector<float> out_fused(kCols, 0.0f), out_unfused(kCols, 0.0f);
  std::vector<float> grad(kCols);
  for (int step = 0; step < 6; ++step) {
    const size_t row = static_cast<size_t>(step) % 3;
    const std::vector<float> query = RandomRow(kCols, rng);
    const float coeff = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
    opt_fused.StepCandidateRow(fused, row, query, coeff, out_fused);
    for (size_t i = 0; i < kCols; ++i) grad[i] = coeff * query[i];
    opt_unfused.Step(unfused, row, grad);
    simd::Axpy(coeff, unfused.Row(row), out_unfused);
  }
  EXPECT_TRUE(BitEqual(fused.Data(), unfused.Data()));
  EXPECT_TRUE(BitEqual(out_fused, out_unfused));
  EXPECT_TRUE(BitEqual(opt_fused.AccumData(), opt_unfused.AccumData()));
}

// ---------------------------------------------------------------------------
// Trainer byte identity: grad_clip_norm = 0 sends every plain candidate row
// of the 1-N trainers through the fused kernel; grad_clip_norm = FLT_MAX
// sends every row through the unfused Step + Axpy path and never clips.
// Parameters and optimizer state must match byte for byte.
// ---------------------------------------------------------------------------

class TrainerFusedPathTest : public ::testing::TestWithParam<ModelKind> {
 protected:
  /// Everything Train() leaves behind, read back from its final checkpoint
  /// (the optimizer accumulators are parameter spans there).
  struct Trained {
    std::string params;
    std::vector<std::vector<float>> spans;
    uint64_t row_steps = 0;
    uint64_t clips = 0;
  };

  static Trained Train(ModelKind kind, float clip) {
    const Dataset dataset = testing_util::MakeToyDataset();
    TrainConfig config = testing_util::FastConfig(kind);
    config.epochs = 4;
    config.grad_clip_norm = clip;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("kelpie_optimizer_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    CheckpointOptions options;
    options.directory = dir.string();
    options.fingerprint = 1;

    Trained out;
    {
      metrics::ScopedRegistry scoped;
      auto model = CreateModel(kind, dataset, config);
      TrainCheckpointer writer(options);
      TrainControl control;
      control.checkpointer = &writer;
      Rng rng(17);
      const Status status = model->Train(dataset, rng, control);
      EXPECT_TRUE(status.ok()) << status.ToString();
      std::ostringstream params;
      EXPECT_TRUE(model->SaveParameters(params).ok());
      out.params = std::move(params).str();
      out.row_steps =
          scoped.registry().CounterFamilyTotal("kelpie_train_row_steps_total");
      out.clips =
          scoped.registry().CounterFamilyTotal("kelpie_train_grad_clip_total");
    }
    options.resume = true;
    TrainCheckpointer reader(options);
    std::optional<CheckpointState> state = reader.TryRestore();
    EXPECT_TRUE(state.has_value());
    if (state.has_value()) out.spans = std::move(state->params);
    std::filesystem::remove_all(dir);
    return out;
  }
};

TEST_P(TrainerFusedPathTest, FusedAndUnfusedRowStepsAreByteIdentical) {
  const Trained fused = Train(GetParam(), 0.0f);
  const Trained unfused = Train(GetParam(), FLT_MAX);
  EXPECT_EQ(unfused.clips, 0u);
  EXPECT_GT(fused.row_steps, 0u);
  EXPECT_EQ(fused.row_steps, unfused.row_steps);
  EXPECT_TRUE(fused.params == unfused.params);
  ASSERT_EQ(fused.spans.size(), unfused.spans.size());
  for (size_t i = 0; i < fused.spans.size(); ++i) {
    EXPECT_TRUE(BitEqual(fused.spans[i], unfused.spans[i])) << "span " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(OneToN, TrainerFusedPathTest,
                         ::testing::Values(ModelKind::kComplEx,
                                           ModelKind::kDistMult,
                                           ModelKind::kConvE),
                         [](const auto& info) {
                           return std::string(ModelKindName(info.param));
                         });

}  // namespace
}  // namespace kelpie
