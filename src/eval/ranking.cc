#include "eval/ranking.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "math/matrix.h"
#include "math/quant.h"
#include "math/simd.h"

namespace kelpie {

namespace {

/// Per-thread score workspace for the all-candidate sweeps. The filtered
/// ranks are recomputed once per candidate per post-training in the
/// relevance engine; reusing the buffer removes a num_entities-sized
/// allocation from every call.
std::span<float> ScoreScratch(size_t n) {
  thread_local std::vector<float> scratch;
  scratch.resize(n);
  return scratch;
}

std::atomic<bool> g_default_quantized_shortlist{false};

struct QuantMetrics {
  metrics::Counter& sweeps;
  metrics::Counter& rescored;
  metrics::Counter& fallbacks;
};

/// Resolved on *every* rank call, quantization on or off, so the metric
/// families are registered identically and deterministic snapshots stay
/// byte-identical regardless of the flag. All wall-clock class (masked).
QuantMetrics ResolveQuantMetrics() {
  metrics::Registry& reg = metrics::Registry::Global();
  const metrics::Determinism wc = metrics::Determinism::kWallClock;
  return QuantMetrics{
      reg.GetCounter("kelpie_quant_sweeps_total", {}, wc,
                     "Filtered ranks served by the int8 candidate sweep."),
      reg.GetCounter("kelpie_quant_rescored_total", {}, wc,
                     "Uncertain-band candidates re-scored exactly."),
      reg.GetCounter("kelpie_quant_fallbacks_total", {}, wc,
                     "Quantized rank requests that fell back to the exact "
                     "sweep."),
  };
}

/// The certified-interval quantized rank (DESIGN.md §15). Returns nullopt
/// whenever the byte-identity guarantee cannot be upheld cheaply — caller
/// falls back to the exact sweep:
///  - the model exposes no CandidateSweep / entity table, or shapes
///    disagree;
///  - the entity table is not quantizable (QuantizedEntityTable null);
///  - the query vector is non-finite (quantization undefined);
///  - the target's exact score is non-finite (RankFromScores' NaN
///    semantics — every comparison false — must be reproduced by the
///    exact path).
///
/// Otherwise the returned rank equals RankFromScores over the exact sweep
/// bit for bit: every candidate is either classified through an interval
/// that certifiably contains its exact float kernel value, or re-scored
/// through the very same per-row kernels the full sweep reduces to.
std::optional<int> QuantRank(const LinkPredictionModel& model,
                             const std::optional<CandidateSweep>& sweep,
                             EntityId target,
                             const std::unordered_set<EntityId>* filtered_out,
                             QuantMetrics& qm) {
  if (!sweep.has_value()) return std::nullopt;
  const Matrix* table = model.EntityTable();
  if (table == nullptr) return std::nullopt;
  const size_t n = table->rows();
  const size_t cols = table->cols();
  if (n != model.num_entities() || cols != sweep->query.size()) {
    return std::nullopt;
  }
  if (!sweep->bias.empty() && sweep->bias.size() != n) return std::nullopt;
  std::shared_ptr<const quant::QuantizedTable> qt =
      model.QuantizedEntityTable();
  if (qt == nullptr || qt->rows != n || qt->cols != cols) return std::nullopt;
  quant::QuantizedVec qx = quant::QuantizeVec(sweep->query);
  if (!qx.finite) return std::nullopt;
  KELPIE_CHECK(target >= 0 && static_cast<size_t>(target) < n);

  thread_local std::vector<double> approx_buf;
  thread_local std::vector<double> err_buf;
  approx_buf.resize(n);
  err_buf.resize(n);
  std::span<double> approx(approx_buf);
  std::span<double> err(err_buf);

  const bool dot_kernel = sweep->kernel == CandidateSweep::Kernel::kDot;
  if (dot_kernel) {
    quant::ApproxDots(*qt, qx, approx, err);
  } else {
    quant::ApproxSquaredDistances(*qt, qx, approx, err);
  }

  const std::span<const float> query(sweep->query);
  // Exact target score through the per-row kernels — bit-identical to the
  // value the full sweep would write for `target` (the PR 5 per-row
  // equivalence contract of simd::GemvRowMajor / SquaredDistanceRows).
  const std::span<const float> target_row =
      table->Row(static_cast<size_t>(target));
  float target_pre;    // kernel-space value (dot or squared distance)
  float target_final;  // final score after bias / -sqrt transform
  if (dot_kernel) {
    target_pre = simd::Dot(target_row, query);
    target_final = sweep->bias.empty()
                       ? target_pre
                       : target_pre + sweep->bias[static_cast<size_t>(target)];
  } else {
    target_pre = simd::SquaredDistance(target_row, query);
    target_final = -std::sqrt(target_pre);
  }
  if (!std::isfinite(target_final)) return std::nullopt;

  // One float ulp of relative rounding, used to widen the interval across
  // the sweep's final `score += 1.0f * bias` add (Axpy): the add's result
  // is fl(dot + b), within 2^-23·|value| of the real sum.
  constexpr double kUlp = 0x1p-23;
  // Multiplicative guard on the certainly-worse side of distance ranks:
  // float sqrt is correctly rounded, so d_e > d_t·(1 + 1e-5) forces
  // fl(sqrt(d_e)) > fl(sqrt(d_t)) strictly (the ratio exceeds any rounding
  // collision, and it degenerates safely at d_t = 0 where the condition
  // becomes d_e > 0 ⇒ sqrt(d_e) > 0).
  constexpr double kSqrtGuard = 1e-5;

  const double t_final = static_cast<double>(target_final);
  const double t_pre = static_cast<double>(target_pre);
  int rank = 0;
  uint64_t rescored = 0;
  for (size_t e = 0; e < n; ++e) {
    const EntityId id = static_cast<EntityId>(e);
    if (id == target) {
      // φ(target) >= φ(target): the target always counts itself (and the
      // non-finite case where it would not was excluded above).
      ++rank;
      continue;
    }
    if (filtered_out != nullptr && filtered_out->count(id)) continue;
    bool counts;
    if (dot_kernel) {
      double c = approx[e];
      double w = err[e];
      if (!sweep->bias.empty()) {
        c += static_cast<double>(sweep->bias[e]);
        w += kUlp * (std::fabs(c) + err[e]);
      }
      if (c - w >= t_final) {
        counts = true;
      } else if (c + w < t_final) {
        counts = false;
      } else {
        float s = simd::Dot(table->Row(e), query);
        if (!sweep->bias.empty()) s += sweep->bias[e];
        counts = s >= target_final;
        ++rescored;
      }
    } else {
      if (approx[e] + err[e] <= t_pre) {
        // d_e <= d_t and float sqrt is monotone: -sqrt(d_e) >= -sqrt(d_t).
        counts = true;
      } else if (approx[e] - err[e] > t_pre * (1.0 + kSqrtGuard)) {
        counts = false;
      } else {
        const float d = simd::SquaredDistance(table->Row(e), query);
        counts = -std::sqrt(d) >= target_final;
        ++rescored;
      }
    }
    if (counts) ++rank;
  }
  qm.sweeps.Increment(1);
  qm.rescored.Increment(rescored);
  return rank;
}

}  // namespace

void SetDefaultQuantizedShortlist(bool on) {
  g_default_quantized_shortlist.store(on, std::memory_order_relaxed);
}

bool DefaultQuantizedShortlist() {
  return g_default_quantized_shortlist.load(std::memory_order_relaxed);
}

int RankFromScores(std::span<const float> scores, EntityId target,
                   const std::unordered_set<EntityId>* filtered_out) {
  KELPIE_CHECK(target >= 0 && static_cast<size_t>(target) < scores.size());
  const float target_score = scores[static_cast<size_t>(target)];
  int rank = 0;
  // The score test comes first: only the entities that would count consult
  // the filter set, which most candidates of a trained model never reach.
  for (size_t e = 0; e < scores.size(); ++e) {
    if (!(scores[e] >= target_score)) continue;
    const EntityId id = static_cast<EntityId>(e);
    if (id != target && filtered_out != nullptr && filtered_out->count(id)) {
      continue;
    }
    ++rank;
  }
  return rank;
}

int FilteredTailRank(const LinkPredictionModel& model, const Dataset& dataset,
                     const Triple& fact, const RankingOptions& options) {
  QuantMetrics qm = ResolveQuantMetrics();
  const std::unordered_set<EntityId>* filtered =
      &dataset.KnownTails(fact.head, fact.relation);
  if (options.quantized_shortlist) {
    std::optional<int> rank = QuantRank(
        model,
        model.TailSweepWithHeadVec(model.EntityEmbedding(fact.head),
                                   fact.relation),
        fact.tail, filtered, qm);
    if (rank.has_value()) return *rank;
    qm.fallbacks.Increment(1);
  }
  std::span<float> scores = ScoreScratch(model.num_entities());
  model.ScoreAllTails(fact.head, fact.relation, scores);
  return RankFromScores(scores, fact.tail, filtered);
}

int FilteredTailRank(const LinkPredictionModel& model, const Dataset& dataset,
                     const Triple& fact) {
  return FilteredTailRank(model, dataset, fact,
                          RankingOptions{DefaultQuantizedShortlist()});
}

int FilteredHeadRank(const LinkPredictionModel& model, const Dataset& dataset,
                     const Triple& fact, const RankingOptions& options) {
  QuantMetrics qm = ResolveQuantMetrics();
  const std::unordered_set<EntityId>* filtered =
      &dataset.KnownHeads(fact.relation, fact.tail);
  if (options.quantized_shortlist) {
    std::optional<int> rank = QuantRank(
        model,
        model.HeadSweepWithTailVec(fact.relation,
                                   model.EntityEmbedding(fact.tail)),
        fact.head, filtered, qm);
    if (rank.has_value()) return *rank;
    qm.fallbacks.Increment(1);
  }
  std::span<float> scores = ScoreScratch(model.num_entities());
  model.ScoreAllHeads(fact.relation, fact.tail, scores);
  return RankFromScores(scores, fact.head, filtered);
}

int FilteredHeadRank(const LinkPredictionModel& model, const Dataset& dataset,
                     const Triple& fact) {
  return FilteredHeadRank(model, dataset, fact,
                          RankingOptions{DefaultQuantizedShortlist()});
}

int FilteredTailRankWithHeadVec(const LinkPredictionModel& model,
                                const Dataset& dataset, EntityId head_entity,
                                std::span<const float> head_vec,
                                RelationId relation, EntityId target_tail,
                                const RankingOptions& options) {
  QuantMetrics qm = ResolveQuantMetrics();
  const std::unordered_set<EntityId>* filtered =
      &dataset.KnownTails(head_entity, relation);
  if (options.quantized_shortlist) {
    std::optional<int> rank =
        QuantRank(model, model.TailSweepWithHeadVec(head_vec, relation),
                  target_tail, filtered, qm);
    if (rank.has_value()) return *rank;
    qm.fallbacks.Increment(1);
  }
  std::span<float> scores = ScoreScratch(model.num_entities());
  model.ScoreAllTailsWithHeadVec(head_vec, relation, scores);
  return RankFromScores(scores, target_tail, filtered);
}

int FilteredTailRankWithHeadVec(const LinkPredictionModel& model,
                                const Dataset& dataset, EntityId head_entity,
                                std::span<const float> head_vec,
                                RelationId relation, EntityId target_tail) {
  return FilteredTailRankWithHeadVec(
      model, dataset, head_entity, head_vec, relation, target_tail,
      RankingOptions{DefaultQuantizedShortlist()});
}

int FilteredHeadRankWithTailVec(const LinkPredictionModel& model,
                                const Dataset& dataset, EntityId tail_entity,
                                std::span<const float> tail_vec,
                                RelationId relation, EntityId target_head,
                                const RankingOptions& options) {
  QuantMetrics qm = ResolveQuantMetrics();
  const std::unordered_set<EntityId>* filtered =
      &dataset.KnownHeads(relation, tail_entity);
  if (options.quantized_shortlist) {
    std::optional<int> rank =
        QuantRank(model, model.HeadSweepWithTailVec(relation, tail_vec),
                  target_head, filtered, qm);
    if (rank.has_value()) return *rank;
    qm.fallbacks.Increment(1);
  }
  std::span<float> scores = ScoreScratch(model.num_entities());
  model.ScoreAllHeadsWithTailVec(relation, tail_vec, scores);
  return RankFromScores(scores, target_head, filtered);
}

int FilteredHeadRankWithTailVec(const LinkPredictionModel& model,
                                const Dataset& dataset, EntityId tail_entity,
                                std::span<const float> tail_vec,
                                RelationId relation, EntityId target_head) {
  return FilteredHeadRankWithTailVec(
      model, dataset, tail_entity, tail_vec, relation, target_head,
      RankingOptions{DefaultQuantizedShortlist()});
}

int FilteredRank(const LinkPredictionModel& model, const Dataset& dataset,
                 const Triple& fact, PredictionTarget target,
                 const RankingOptions& options) {
  return target == PredictionTarget::kTail
             ? FilteredTailRank(model, dataset, fact, options)
             : FilteredHeadRank(model, dataset, fact, options);
}

int FilteredRank(const LinkPredictionModel& model, const Dataset& dataset,
                 const Triple& fact, PredictionTarget target) {
  return FilteredRank(model, dataset, fact, target,
                      RankingOptions{DefaultQuantizedShortlist()});
}

}  // namespace kelpie
