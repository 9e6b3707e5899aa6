#include "eval/ranking.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "math/rng.h"
#include "tests/test_util.h"

namespace kelpie {
namespace {

/// Sort-based reference for paper Equation (2): sort the kept candidates'
/// scores descending and count how many are >= the target's score. The
/// production RankFromScores computes the same rank with a single O(n)
/// counting pass; this pins the two against each other.
int SortBasedRank(std::span<const float> scores, EntityId target,
                  const std::unordered_set<EntityId>* filtered_out) {
  std::vector<float> kept;
  for (size_t e = 0; e < scores.size(); ++e) {
    EntityId id = static_cast<EntityId>(e);
    if (id != target && filtered_out != nullptr && filtered_out->count(id)) {
      continue;
    }
    kept.push_back(scores[e]);
  }
  std::sort(kept.begin(), kept.end(), std::greater<float>());
  const float target_score = scores[static_cast<size_t>(target)];
  auto worse = std::lower_bound(kept.begin(), kept.end(), target_score,
                                std::greater<float>());
  // `worse` points past the >= prefix in descending order... not quite:
  // lower_bound with greater<> finds the first element NOT > target_score,
  // so advance through the ties manually to count the >= prefix.
  int rank = static_cast<int>(worse - kept.begin());
  while (worse != kept.end() && *worse == target_score) {
    ++rank;
    ++worse;
  }
  return rank;
}

TEST(RankFromScoresTest, BestScoreRanksFirst) {
  std::vector<float> scores{0.1f, 0.9f, 0.5f};
  EXPECT_EQ(RankFromScores(scores, 1, nullptr), 1);
  EXPECT_EQ(RankFromScores(scores, 2, nullptr), 2);
  EXPECT_EQ(RankFromScores(scores, 0, nullptr), 3);
}

TEST(RankFromScoresTest, TiesCountAgainstTargetPerEquation2) {
  // Equation (2) uses >=, so an entity tied with the target worsens its
  // rank.
  std::vector<float> scores{0.5f, 0.5f, 0.1f};
  EXPECT_EQ(RankFromScores(scores, 0, nullptr), 2);
  EXPECT_EQ(RankFromScores(scores, 1, nullptr), 2);
}

TEST(RankFromScoresTest, FilteredEntitiesAreSkipped) {
  std::vector<float> scores{0.9f, 0.8f, 0.7f, 0.1f};
  std::unordered_set<EntityId> known{0, 1};
  // Target 2: entities 0 and 1 outscore it but are filtered out.
  EXPECT_EQ(RankFromScores(scores, 2, &known), 1);
}

TEST(RankFromScoresTest, TargetNeverFiltersItself) {
  std::vector<float> scores{0.9f, 0.8f};
  std::unordered_set<EntityId> known{0, 1};
  EXPECT_EQ(RankFromScores(scores, 1, &known), 1);
  EXPECT_EQ(RankFromScores(scores, 0, &known), 1);
}

TEST(RankFromScoresTest, MatchesSortBasedReferenceOnRandomVectorsWithTies) {
  Rng rng(424242);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.UniformUint64(50);
    std::vector<float> scores(n);
    for (float& s : scores) {
      // Quantized draws so ties are common.
      s = static_cast<float>(rng.UniformUint64(8)) / 4.0f;
    }
    std::unordered_set<EntityId> filtered;
    for (size_t e = 0; e < n; ++e) {
      if (rng.Bernoulli(0.25)) filtered.insert(static_cast<EntityId>(e));
    }
    const EntityId target = static_cast<EntityId>(rng.UniformUint64(n));
    const std::unordered_set<EntityId>* filter =
        rng.Bernoulli(0.5) ? &filtered : nullptr;
    EXPECT_EQ(RankFromScores(scores, target, filter),
              SortBasedRank(scores, target, filter))
        << "trial " << trial << " n=" << n << " target=" << target;
  }
}

/// Brute-force Equation (2) that consults the filter before the score:
/// RankFromScores tests the score first, which must not change the rank.
int FilterFirstRank(std::span<const float> scores, EntityId target,
                    const std::unordered_set<EntityId>* filtered_out) {
  const float target_score = scores[static_cast<size_t>(target)];
  int rank = 0;
  for (size_t e = 0; e < scores.size(); ++e) {
    const EntityId id = static_cast<EntityId>(e);
    if (id != target && filtered_out != nullptr && filtered_out->count(id)) {
      continue;
    }
    if (scores[e] >= target_score) ++rank;
  }
  return rank;
}

TEST(RankFromScoresTest, MatchesFilterFirstBruteForceWithTiesAndNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Filtered ties: entities 1 and 3 tie with the target and are filtered,
  // entity 4 ties and is kept, entity 0 outscores it and is filtered.
  std::vector<float> scores{0.9f, 0.5f, 0.5f, 0.5f, 0.5f, 0.1f};
  std::unordered_set<EntityId> known{0, 1, 3};
  EXPECT_EQ(RankFromScores(scores, 2, &known), 2);
  EXPECT_EQ(RankFromScores(scores, 2, &known),
            FilterFirstRank(scores, 2, &known));
  // A NaN target: every comparison is false, so the rank is 0 filtered or
  // not, and NaN candidates never count either.
  std::vector<float> with_nan{0.3f, nan, nan, 0.7f};
  EXPECT_EQ(RankFromScores(with_nan, 1, nullptr), 0);
  EXPECT_EQ(RankFromScores(with_nan, 1, &known), 0);
  EXPECT_EQ(RankFromScores(with_nan, 0, nullptr), 2);

  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 1 + rng.UniformUint64(40);
    std::vector<float> values(n);
    for (float& v : values) {
      v = rng.Bernoulli(0.1) ? nan
                             : static_cast<float>(rng.UniformUint64(6)) / 2.0f;
    }
    std::unordered_set<EntityId> filtered;
    for (size_t e = 0; e < n; ++e) {
      if (rng.Bernoulli(0.3)) filtered.insert(static_cast<EntityId>(e));
    }
    const EntityId target = static_cast<EntityId>(rng.UniformUint64(n));
    const std::unordered_set<EntityId>* filters[] = {&filtered, nullptr};
    for (const auto* filter : filters) {
      EXPECT_EQ(RankFromScores(values, target, filter),
                FilterFirstRank(values, target, filter))
          << "trial " << trial << " n=" << n << " target=" << target;
    }
  }
}

class FilteredRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<Dataset>(testing_util::MakeToyDataset());
    model_ = testing_util::TrainToyModel(ModelKind::kComplEx, *dataset_);
  }
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<LinkPredictionModel> model_;
};

TEST_F(FilteredRankTest, RanksAreInValidRange) {
  for (const Triple& t : dataset_->test()) {
    int tail_rank = FilteredTailRank(*model_, *dataset_, t);
    int head_rank = FilteredHeadRank(*model_, *dataset_, t);
    EXPECT_GE(tail_rank, 1);
    EXPECT_LE(tail_rank, static_cast<int>(dataset_->num_entities()));
    EXPECT_GE(head_rank, 1);
    EXPECT_LE(head_rank, static_cast<int>(dataset_->num_entities()));
  }
}

TEST_F(FilteredRankTest, FilteredNeverWorseThanRaw) {
  // Filtering removes known competitors, so the filtered rank is <= the
  // raw rank.
  for (const Triple& t : dataset_->test()) {
    std::vector<float> scores(model_->num_entities());
    model_->ScoreAllTails(t.head, t.relation, scores);
    int raw = RankFromScores(scores, t.tail, nullptr);
    int filtered = FilteredTailRank(*model_, *dataset_, t);
    EXPECT_LE(filtered, raw);
  }
}

TEST_F(FilteredRankTest, OverrideWithStoredRowMatchesDirectRank) {
  Triple probe = dataset_->test().front();
  int direct = FilteredTailRank(*model_, *dataset_, probe);
  int via_override = FilteredTailRankWithHeadVec(
      *model_, *dataset_, probe.head, model_->EntityEmbedding(probe.head),
      probe.relation, probe.tail);
  EXPECT_EQ(direct, via_override);
}

TEST_F(FilteredRankTest, FilteredRankDispatchesOnTarget) {
  Triple probe = dataset_->test().front();
  EXPECT_EQ(FilteredRank(*model_, *dataset_, probe, PredictionTarget::kTail),
            FilteredTailRank(*model_, *dataset_, probe));
  EXPECT_EQ(FilteredRank(*model_, *dataset_, probe, PredictionTarget::kHead),
            FilteredHeadRank(*model_, *dataset_, probe));
}

}  // namespace
}  // namespace kelpie
