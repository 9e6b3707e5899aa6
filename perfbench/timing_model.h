// A forwarding LinkPredictionModel that times the two model calls an
// explanation spends its time in: PostTrainMimic (the models layer) and the
// all-candidate ScoreAll* sweeps behind every filtered rank (the eval
// layer). Every call forwards unchanged to the wrapped model, so an
// extraction through the proxy returns the same bytes as one without it.
#ifndef KELPIE_PERFBENCH_TIMING_MODEL_H_
#define KELPIE_PERFBENCH_TIMING_MODEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "models/model.h"

namespace perfbench {

/// Busy time and work of the timed calls, summed over all threads.
struct ModelCallTotals {
  uint64_t post_train_calls = 0;
  uint64_t post_train_facts = 0;
  double post_train_s = 0.0;
  uint64_t sweeps = 0;
  uint64_t rows_swept = 0;
  double sweep_s = 0.0;

  ModelCallTotals& operator+=(const ModelCallTotals& o) {
    post_train_calls += o.post_train_calls;
    post_train_facts += o.post_train_facts;
    post_train_s += o.post_train_s;
    sweeps += o.sweeps;
    rows_swept += o.rows_swept;
    sweep_s += o.sweep_s;
    return *this;
  }
};

class TimingModel final : public kelpie::LinkPredictionModel {
 public:
  /// `inner` must outlive the proxy.
  explicit TimingModel(kelpie::LinkPredictionModel& inner)
      : LinkPredictionModel(inner.config()), inner_(inner) {}

  ModelCallTotals Totals() const {
    ModelCallTotals t;
    t.post_train_calls = post_train_calls_.load(std::memory_order_relaxed);
    t.post_train_facts = post_train_facts_.load(std::memory_order_relaxed);
    t.post_train_s = 1e-9 * static_cast<double>(
                                post_train_ns_.load(std::memory_order_relaxed));
    t.sweeps = sweeps_.load(std::memory_order_relaxed);
    t.rows_swept = sweeps_.load(std::memory_order_relaxed) * num_entities();
    t.sweep_s =
        1e-9 * static_cast<double>(sweep_ns_.load(std::memory_order_relaxed));
    return t;
  }

  std::string_view Name() const override { return inner_.Name(); }
  size_t num_entities() const override { return inner_.num_entities(); }
  size_t num_relations() const override { return inner_.num_relations(); }
  size_t entity_dim() const override { return inner_.entity_dim(); }

  kelpie::Status Train(const kelpie::Dataset& dataset, kelpie::Rng& rng,
                       const kelpie::TrainControl& control) override {
    return inner_.Train(dataset, rng, control);
  }

  float Score(const kelpie::Triple& t) const override {
    return inner_.Score(t);
  }

  void ScoreAllTails(kelpie::EntityId h, kelpie::RelationId r,
                     std::span<float> out) const override {
    SweepTimer timer(*this);
    inner_.ScoreAllTails(h, r, out);
  }
  void ScoreAllHeads(kelpie::RelationId r, kelpie::EntityId t,
                     std::span<float> out) const override {
    SweepTimer timer(*this);
    inner_.ScoreAllHeads(r, t, out);
  }
  void ScoreAllTailsWithHeadVec(std::span<const float> head_vec,
                                kelpie::RelationId r,
                                std::span<float> out) const override {
    SweepTimer timer(*this);
    inner_.ScoreAllTailsWithHeadVec(head_vec, r, out);
  }
  void ScoreAllHeadsWithTailVec(kelpie::RelationId r,
                                std::span<const float> tail_vec,
                                std::span<float> out) const override {
    SweepTimer timer(*this);
    inner_.ScoreAllHeadsWithTailVec(r, tail_vec, out);
  }

  float ScoreWithEntityVec(const kelpie::Triple& t, kelpie::EntityId which,
                           std::span<const float> vec) const override {
    return inner_.ScoreWithEntityVec(t, which, vec);
  }
  std::vector<float> ScoreGradWrtHead(const kelpie::Triple& t) const override {
    return inner_.ScoreGradWrtHead(t);
  }
  std::vector<float> ScoreGradWrtTail(const kelpie::Triple& t) const override {
    return inner_.ScoreGradWrtTail(t);
  }

  using LinkPredictionModel::PostTrainMimic;
  std::vector<float> PostTrainMimic(
      const kelpie::Dataset& dataset, kelpie::EntityId entity,
      const std::vector<kelpie::Triple>& facts, kelpie::Rng& rng,
      std::span<const float> warm_init) const override {
    const auto start = Clock::now();
    std::vector<float> mimic =
        inner_.PostTrainMimic(dataset, entity, facts, rng, warm_init);
    post_train_ns_.fetch_add(NanosSince(start), std::memory_order_relaxed);
    post_train_calls_.fetch_add(1, std::memory_order_relaxed);
    post_train_facts_.fetch_add(facts.size(), std::memory_order_relaxed);
    return mimic;
  }

  std::optional<kelpie::CandidateSweep> TailSweepWithHeadVec(
      std::span<const float> head_vec, kelpie::RelationId r) const override {
    return inner_.TailSweepWithHeadVec(head_vec, r);
  }
  std::optional<kelpie::CandidateSweep> HeadSweepWithTailVec(
      kelpie::RelationId r, std::span<const float> tail_vec) const override {
    return inner_.HeadSweepWithTailVec(r, tail_vec);
  }
  const kelpie::Matrix* EntityTable() const override {
    return inner_.EntityTable();
  }
  std::shared_ptr<const kelpie::quant::QuantizedTable> QuantizedEntityTable()
      const override {
    return inner_.QuantizedEntityTable();
  }

  std::span<const float> EntityEmbedding(kelpie::EntityId e) const override {
    return inner_.EntityEmbedding(e);
  }
  std::span<float> MutableEntityEmbedding(kelpie::EntityId e) override {
    return inner_.MutableEntityEmbedding(e);
  }

  kelpie::Status SaveParameters(std::ostream& out) const override {
    return inner_.SaveParameters(out);
  }
  kelpie::Status LoadParameters(std::istream& in) override {
    return inner_.LoadParameters(in);
  }

 private:
  using Clock = std::chrono::steady_clock;

  static uint64_t NanosSince(Clock::time_point start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }

  class SweepTimer {
   public:
    explicit SweepTimer(const TimingModel& model)
        : model_(model), start_(Clock::now()) {}
    ~SweepTimer() {
      model_.sweep_ns_.fetch_add(NanosSince(start_),
                                 std::memory_order_relaxed);
      model_.sweeps_.fetch_add(1, std::memory_order_relaxed);
    }
    SweepTimer(const SweepTimer&) = delete;
    SweepTimer& operator=(const SweepTimer&) = delete;

   private:
    const TimingModel& model_;
    Clock::time_point start_;
  };

  kelpie::LinkPredictionModel& inner_;
  mutable std::atomic<uint64_t> post_train_calls_{0};
  mutable std::atomic<uint64_t> post_train_facts_{0};
  mutable std::atomic<uint64_t> post_train_ns_{0};
  mutable std::atomic<uint64_t> sweeps_{0};
  mutable std::atomic<uint64_t> sweep_ns_{0};
};

}  // namespace perfbench

#endif  // KELPIE_PERFBENCH_TIMING_MODEL_H_
