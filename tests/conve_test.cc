#include "models/conve.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "datagen/datasets.h"
#include "eval/metrics.h"
#include "eval/ranking.h"
#include "math/vec.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

TEST(ConvETest, RejectsDimNotDivisibleByReshapeHeight) {
  TrainConfig config;
  config.dim = 30;  // not divisible by reshape_height 4
  config.reshape_height = 4;
  EXPECT_DEATH(ConvE(5, 2, config), "");
}

TEST(ConvETest, TailGradientEqualsHiddenVector) {
  // φ is linear in the tail embedding: ∂φ/∂t is the MLP output v, so
  // φ(h, r, t) == <∂φ/∂t, t> + b_t.
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kConvE, dataset);
  Triple probe = dataset.test().front();
  std::vector<float> v = model->ScoreGradWrtTail(probe);
  auto* conve = dynamic_cast<ConvE*>(model.get());
  ASSERT_NE(conve, nullptr);
  float expected = Dot(v, model->EntityEmbedding(probe.tail)) +
                   conve->entity_bias()[static_cast<size_t>(probe.tail)];
  EXPECT_NEAR(model->Score(probe), expected, 1e-4);
}

TEST(ConvETest, TrainingLearnsCompositionalPattern) {
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kConvE, dataset);
  MetricsAccumulator acc;
  for (const Triple& t : dataset.test()) {
    acc.AddRank(FilteredTailRank(*model, dataset, t));
  }
  EXPECT_GT(acc.Mrr(), 0.3);
}

TEST(ConvETest, TrainingIsDeterministic) {
  Dataset dataset = testing_util::MakeToyDataset();
  auto m1 = testing_util::TrainToyModel(ModelKind::kConvE, dataset, 5);
  auto m2 = testing_util::TrainToyModel(ModelKind::kConvE, dataset, 5);
  Triple probe = dataset.test().front();
  EXPECT_FLOAT_EQ(m1->Score(probe), m2->Score(probe));
}

TEST(ConvETest, EntityBiasAffectsScore) {
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kConvE, dataset);
  // After training the per-entity biases should have moved off zero.
  auto* conve = dynamic_cast<ConvE*>(model.get());
  ASSERT_NE(conve, nullptr);
  double total = 0.0;
  for (float b : conve->entity_bias()) total += std::abs(b);
  EXPECT_GT(total, 0.0);
}

TEST(ConvETest, MimicAsTailBiasExcludedFromOverrideScore) {
  // ScoreWithEntityVec with the tail overridden must not apply the stored
  // entity bias of the overridden tail (a mimic has no bias row).
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kConvE, dataset);
  auto* conve = dynamic_cast<ConvE*>(model.get());
  ASSERT_NE(conve, nullptr);
  Triple probe = dataset.test().front();
  std::span<const float> stored = model->EntityEmbedding(probe.tail);
  float with_override =
      model->ScoreWithEntityVec(probe, probe.tail, stored);
  float bias = conve->entity_bias()[static_cast<size_t>(probe.tail)];
  EXPECT_NEAR(with_override + bias, model->Score(probe), 1e-4);
}

TEST(ConvETest, ScoreAllTailsWithHeadVecConsistent) {
  Dataset dataset = testing_util::MakeToyDataset();
  auto model = testing_util::TrainToyModel(ModelKind::kConvE, dataset);
  Triple probe = dataset.test().front();
  std::vector<float> scores(model->num_entities());
  model->ScoreAllTailsWithHeadVec(model->EntityEmbedding(probe.head),
                                  probe.relation, scores);
  EXPECT_NEAR(scores[static_cast<size_t>(probe.tail)], model->Score(probe),
              1e-4);
}

/// FNV-1a 64 over `size` bytes, continuing from `hash`.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
  }
  return hash;
}

/// Digest of the parameter bytes after a short Train() plus the bytes of
/// one PostTrainMimic() on the trained model, as 16 hex digits.
std::string TrainAndMimicDigest(const TrainConfig& config) {
  Dataset dataset = MakeBenchmark(BenchmarkDataset::kFb15k237, 0.4, 7);
  ConvE model(dataset.num_entities(), dataset.num_relations(), config);
  Rng rng(3);
  EXPECT_TRUE(model.Train(dataset, rng).ok());
  std::ostringstream params;
  EXPECT_TRUE(model.SaveParameters(params).ok());
  const std::string bytes = params.str();
  uint64_t hash = Fnv1a(bytes.data(), bytes.size());
  const Triple fact = dataset.train().front();
  std::vector<Triple> facts;
  for (const Triple& t : dataset.train()) {
    if (t.head == fact.head || t.tail == fact.head) facts.push_back(t);
  }
  Rng mimic_rng(5);
  std::vector<float> mimic =
      model.PostTrainMimic(dataset, fact.head, facts, mimic_rng);
  hash = Fnv1a(mimic.data(), mimic.size() * sizeof(float), hash);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

// Goldens of the per-example network (conv, ReLU, dropout, FC) on every
// SIMD backend: the digests were recorded with the scalar loops the
// kernels replaced, so any change to a float operation or to its order on
// any output element shows here.
TEST(ConvEGoldenTest, DefaultShapeTrainAndMimicBytes) {
  TrainConfig config;  // dim 32, 8x8 image, 3x3 kernel, 8 channels
  config.epochs = 2;
  config.post_training_epochs = 3;
  EXPECT_EQ(TrainAndMimicDigest(config), "c3a5ef7c27912327");
}

TEST(ConvEGoldenTest, OddShapeTrainAndMimicBytes) {
  TrainConfig config;
  config.dim = 24;
  config.reshape_height = 3;  // 6x8 image
  config.conv_kernel = 4;     // 3x5 feature maps
  config.conv_channels = 5;   // not a multiple of any vector width
  config.epochs = 2;
  config.post_training_epochs = 3;
  EXPECT_EQ(TrainAndMimicDigest(config), "f4bd9cc4f7e762c0");
}

}  // namespace
}  // namespace kelpie
