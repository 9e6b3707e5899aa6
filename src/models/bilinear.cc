#include "models/bilinear.h"

#include <cmath>

#include "common/logging.h"
#include "common/metrics.h"
#include "math/simd.h"
#include "math/vec.h"
#include "ml/batcher.h"
#include "ml/embedding_table.h"
#include "ml/serialization.h"

namespace kelpie {

namespace {

/// Per-thread scratch for the relation-composed query vector so the
/// scoring paths do not allocate per call.
std::span<float> QueryScratch(size_t dim) {
  thread_local std::vector<float> scratch;
  scratch.resize(dim);
  return scratch;
}

}  // namespace

BilinearModel::BilinearModel(size_t num_entities, size_t num_relations,
                             TrainConfig config)
    : LinkPredictionModel(std::move(config)),
      entity_embeddings_(num_entities, config_.dim),
      relation_embeddings_(num_relations, config_.dim) {}

float BilinearModel::Score(const Triple& t) const {
  std::span<float> q = QueryScratch(entity_dim());
  TailQuery(entity_embeddings_.Row(static_cast<size_t>(t.head)),
            relation_embeddings_.Row(static_cast<size_t>(t.relation)), q);
  return Dot(q, entity_embeddings_.Row(static_cast<size_t>(t.tail)));
}

void BilinearModel::ScoreAllTails(EntityId h, RelationId r,
                                  std::span<float> out) const {
  ScoreAllTailsWithHeadVec(entity_embeddings_.Row(static_cast<size_t>(h)), r,
                           out);
}

void BilinearModel::ScoreAllTailsWithHeadVec(std::span<const float> head_vec,
                                             RelationId r,
                                             std::span<float> out) const {
  KELPIE_DCHECK(out.size() == num_entities());
  std::span<float> q = QueryScratch(entity_dim());
  TailQuery(head_vec, relation_embeddings_.Row(static_cast<size_t>(r)), q);
  simd::GemvRowMajor(entity_embeddings_.Data().data(), num_entities(),
                     entity_dim(), q.data(), out.data());
}

void BilinearModel::ScoreAllHeads(RelationId r, EntityId t,
                                  std::span<float> out) const {
  ScoreAllHeadsWithTailVec(
      r, entity_embeddings_.Row(static_cast<size_t>(t)), out);
}

void BilinearModel::ScoreAllHeadsWithTailVec(RelationId r,
                                             std::span<const float> tail_vec,
                                             std::span<float> out) const {
  KELPIE_DCHECK(out.size() == num_entities());
  std::span<float> w = QueryScratch(entity_dim());
  HeadQuery(relation_embeddings_.Row(static_cast<size_t>(r)), tail_vec, w);
  // Dot(e, w) == Dot(w, e) term for term (float multiply is commutative),
  // so the gemv sweep is bit-identical to the per-row Dot it replaces.
  simd::GemvRowMajor(entity_embeddings_.Data().data(), num_entities(),
                     entity_dim(), w.data(), out.data());
}

std::optional<CandidateSweep> BilinearModel::TailSweepWithHeadVec(
    std::span<const float> head_vec, RelationId r) const {
  // TailQuery() is the exact composite the gemv sweep consumes.
  CandidateSweep sweep;
  sweep.kernel = CandidateSweep::Kernel::kDot;
  sweep.query.resize(entity_dim());
  TailQuery(head_vec, relation_embeddings_.Row(static_cast<size_t>(r)),
            sweep.query);
  return sweep;
}

std::optional<CandidateSweep> BilinearModel::HeadSweepWithTailVec(
    RelationId r, std::span<const float> tail_vec) const {
  CandidateSweep sweep;
  sweep.kernel = CandidateSweep::Kernel::kDot;
  sweep.query.resize(entity_dim());
  HeadQuery(relation_embeddings_.Row(static_cast<size_t>(r)), tail_vec,
            sweep.query);
  return sweep;
}

float BilinearModel::ScoreWithEntityVec(const Triple& t, EntityId which,
                                        std::span<const float> vec) const {
  std::span<const float> h =
      (t.head == which) ? vec
                        : entity_embeddings_.Row(static_cast<size_t>(t.head));
  std::span<const float> tl =
      (t.tail == which) ? vec
                        : entity_embeddings_.Row(static_cast<size_t>(t.tail));
  std::span<float> q = QueryScratch(entity_dim());
  TailQuery(h, relation_embeddings_.Row(static_cast<size_t>(t.relation)), q);
  return Dot(q, tl);
}

std::vector<float> BilinearModel::ScoreGradWrtHead(const Triple& t) const {
  // φ = <h, HeadQuery(r, t)> so ∂φ/∂h = HeadQuery(r, t).
  std::vector<float> w(entity_dim());
  HeadQuery(relation_embeddings_.Row(static_cast<size_t>(t.relation)),
            entity_embeddings_.Row(static_cast<size_t>(t.tail)), w);
  return w;
}

std::vector<float> BilinearModel::ScoreGradWrtTail(const Triple& t) const {
  // φ = <TailQuery(h, r), t> so ∂φ/∂t = TailQuery(h, r).
  std::vector<float> q(entity_dim());
  TailQuery(entity_embeddings_.Row(static_cast<size_t>(t.head)),
            relation_embeddings_.Row(static_cast<size_t>(t.relation)), q);
  return q;
}

void BilinearModel::AddN3Gradient(std::span<const float> row,
                                  std::span<float> grad) const {
  const float lambda = config_.regularization;
  if (lambda <= 0.0f) return;
  for (size_t i = 0; i < row.size(); ++i) {
    grad[i] += lambda * 3.0f * std::fabs(row[i]) * row[i];
  }
}

Status BilinearModel::Train(const Dataset& dataset, Rng& rng,
                            const TrainControl& control) {
  InitMatrix(entity_embeddings_, InitScheme::kNormal, 0.1, rng);
  InitMatrix(relation_embeddings_, InitScheme::kNormal, 0.1, rng);
  last_train_report_ = TrainReport{};

  const std::vector<Triple>& train = dataset.train();
  if (train.empty()) return Status::Ok();
  const size_t n_ent = num_entities();
  const size_t dim = entity_dim();

  RowAdagrad entity_opt(n_ent, dim, config_.learning_rate);
  RowAdagrad relation_opt(num_relations(), dim, config_.learning_rate);
  Batcher batcher(train.size(), config_.batch_size);

  std::vector<float> scores(n_ent);
  std::vector<float> q(dim), w(dim);
  std::vector<float> dq(dim), dw(dim);
  std::vector<float> gh(dim), gr(dim), gt(dim), ge(dim);

  // Full-softmax gradients scale with the score spread, so this trainer can
  // genuinely blow up; optionally clip each per-row gradient to an L2 ball.
  const float clip = config_.grad_clip_norm;
  // Clip activations are tallied in a local (the clip sits inside the
  // innermost gradient loop) and flushed to the registry once per run.
  uint64_t clip_activations = 0;
  auto maybe_clip = [clip, &clip_activations](std::span<float> g) {
    if (clip > 0.0f && ProjectToL2Ball(g, clip)) ++clip_activations;
  };
  // Embedding-row optimizer steps, tallied and flushed the same way.
  uint64_t row_steps = 0;
  // Candidate row e of a 1-N softmax: dL/dE_e = coeff * query, applied
  // immediately, then dquery += coeff * E_e (updated). Without clipping or
  // the N3 term the gradient is exactly coeff * query and the fused kernel
  // takes the whole row in one pass; otherwise the gradient is formed,
  // adjusted and stepped explicitly. Both paths run the same element
  // arithmetic (DESIGN.md §11), so they produce the same bytes.
  auto step_candidate = [&](size_t e, float coeff,
                            std::span<const float> query, bool n3,
                            std::span<float> dquery) {
    ++row_steps;
    if (clip <= 0.0f && !n3) {
      entity_opt.StepCandidateRow(entity_embeddings_, e, query, coeff, dquery);
      return;
    }
    for (size_t i = 0; i < dim; ++i) {
      ge[i] = coeff * query[i];
    }
    if (n3) AddN3Gradient(entity_embeddings_.Row(e), ge);
    maybe_clip(ge);
    entity_opt.Step(entity_embeddings_, e, ge);
    Axpy(coeff, entity_embeddings_.Row(e), dquery);
  };

  GuardedTrainHooks hooks;
  hooks.params = [&] {
    return std::vector<std::span<float>>{
        entity_embeddings_.Data(), relation_embeddings_.Data(),
        entity_opt.AccumData(), relation_opt.AccumData()};
  };
  hooks.run_epoch = [&](size_t /*epoch*/, float lr_scale) -> double {
    entity_opt.set_lr_scale(lr_scale);
    relation_opt.set_lr_scale(lr_scale);
    double epoch_loss = 0.0;
    batcher.Reshuffle(rng);
    for (std::span<const size_t> batch = batcher.NextBatch(); !batch.empty();
         batch = batcher.NextBatch()) {
      for (size_t idx : batch) {
        const Triple& triple = train[idx];
        const size_t h = static_cast<size_t>(triple.head);
        const size_t r = static_cast<size_t>(triple.relation);
        const size_t t = static_cast<size_t>(triple.tail);

        // ---- Tail direction: -log p(t | h, r). ----
        TailQuery(entity_embeddings_.Row(h), relation_embeddings_.Row(r), q);
        simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                           q.data(), scores.data());
        SoftmaxInPlace(scores);
        epoch_loss += -std::log(std::max<double>(scores[t], 1e-30));
        Fill(std::span<float>(dq), 0.0f);
        for (size_t e = 0; e < n_ent; ++e) {
          float coeff = scores[e] - (e == t ? 1.0f : 0.0f);
          if (std::fabs(coeff) < 1e-7f) continue;
          step_candidate(e, coeff, q, /*n3=*/e == t, dq);
        }
        Fill(std::span<float>(gh), 0.0f);
        Fill(std::span<float>(gr), 0.0f);
        BackpropTailQuery(entity_embeddings_.Row(h),
                          relation_embeddings_.Row(r), dq, gh, gr);
        AddN3Gradient(entity_embeddings_.Row(h), gh);
        AddN3Gradient(relation_embeddings_.Row(r), gr);
        maybe_clip(gh);
        maybe_clip(gr);
        entity_opt.Step(entity_embeddings_, h, gh);
        relation_opt.Step(relation_embeddings_, r, gr);
        row_steps += 2;

        // ---- Head direction: -log p(h | r, t). ----
        HeadQuery(relation_embeddings_.Row(r), entity_embeddings_.Row(t), w);
        simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                           w.data(), scores.data());
        SoftmaxInPlace(scores);
        epoch_loss += -std::log(std::max<double>(scores[h], 1e-30));
        Fill(std::span<float>(dw), 0.0f);
        for (size_t e = 0; e < n_ent; ++e) {
          float coeff = scores[e] - (e == h ? 1.0f : 0.0f);
          if (std::fabs(coeff) < 1e-7f) continue;
          step_candidate(e, coeff, w, /*n3=*/false, dw);
        }
        Fill(std::span<float>(gr), 0.0f);
        Fill(std::span<float>(gt), 0.0f);
        BackpropHeadQuery(relation_embeddings_.Row(r),
                          entity_embeddings_.Row(t), dw, gr, gt);
        AddN3Gradient(relation_embeddings_.Row(r), gr);
        AddN3Gradient(entity_embeddings_.Row(t), gt);
        maybe_clip(gr);
        maybe_clip(gt);
        relation_opt.Step(relation_embeddings_, r, gr);
        entity_opt.Step(entity_embeddings_, t, gt);
        row_steps += 2;
      }
    }
    return epoch_loss;
  };

  hooks.save_rng = [&] { return rng.SaveState(); };
  hooks.restore_rng = [&](const RngState& state) { rng.LoadState(state); };

  Result<TrainReport> report =
      RunGuardedEpochs(MakeGuardConfig(control), hooks);
  metrics::Registry::Global()
      .GetCounter("kelpie_train_grad_clip_total", {},
                  metrics::Determinism::kDeterministic,
                  "Gradient clip activations (L2 projection rescales).")
      .Increment(clip_activations);
  metrics::Registry::Global()
      .GetCounter("kelpie_train_row_steps_total", {},
                  metrics::Determinism::kDeterministic,
                  "Embedding-row optimizer steps taken by training.")
      .Increment(row_steps);
  if (!report.ok()) return report.status();
  last_train_report_ = std::move(report.value());
  return Status::Ok();
}

std::vector<float> BilinearModel::PostTrainMimic(
    const Dataset& dataset, EntityId entity,
    const std::vector<Triple>& facts, Rng& rng,
    std::span<const float> warm_init) const {
  (void)dataset;
  const size_t n_ent = num_entities();
  const size_t dim = entity_dim();
  std::vector<float> mimic(dim);
  if (warm_init.size() == mimic.size()) {
    std::copy(warm_init.begin(), warm_init.end(), mimic.begin());
  } else {
    InitRow(mimic, InitScheme::kNormal, 0.1, rng);
  }
  if (facts.empty()) return mimic;

  const float lr = config_.post_training_lr > 0 ? config_.post_training_lr
                                                : config_.learning_rate;
  // One-row optimizer for the mimic.
  RowAdagrad mimic_opt(1, dim, lr);

  std::vector<float> scores(n_ent);
  std::vector<float> q(dim), w(dim);
  std::vector<float> dq(dim), dw(dim);
  std::vector<float> gm(dim);
  std::vector<size_t> order(facts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (size_t epoch = 0; epoch < config_.post_training_epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const Triple& fact = facts[idx];
      Fill(std::span<float>(gm), 0.0f);

      if (fact.head == entity) {
        // Mimic as head; tail direction trains the mimic through the query,
        // -log p(tail | mimic, r) over all real entities.
        const size_t r = static_cast<size_t>(fact.relation);
        const size_t t = static_cast<size_t>(fact.tail);
        TailQuery(mimic, relation_embeddings_.Row(r), q);
        simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                           q.data(), scores.data());
        SoftmaxInPlace(scores);
        // coeff_e = scores[e] - [e == t]; subtracting 0 leaves every other
        // score's bits unchanged, so only the true tail needs adjusting.
        scores[t] -= 1.0f;
        Fill(std::span<float>(dq), 0.0f);
        simd::AxpyRows(entity_embeddings_.Data().data(), n_ent, dim,
                       scores.data(), 1e-7f, dq.data());
        BackpropTailQuery(mimic, relation_embeddings_.Row(r), dq, gm, {});
      } else {
        // Mimic as tail: the mimic is the true answer of the tail-direction
        // softmax; candidates are the real entities plus the mimic itself.
        const size_t h = static_cast<size_t>(fact.head);
        const size_t r = static_cast<size_t>(fact.relation);
        TailQuery(entity_embeddings_.Row(h), relation_embeddings_.Row(r), q);
        simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                           q.data(), scores.data());
        double max_s = -1e30;
        for (size_t e = 0; e < n_ent; ++e) {
          max_s = std::max<double>(max_s, scores[e]);
        }
        float mimic_score = Dot(q, mimic);
        max_s = std::max<double>(max_s, mimic_score);
        double denom = std::exp(static_cast<double>(mimic_score) - max_s);
        for (size_t e = 0; e < n_ent; ++e) {
          denom += std::exp(static_cast<double>(scores[e]) - max_s);
        }
        double p_mimic =
            std::exp(static_cast<double>(mimic_score) - max_s) / denom;
        // dL/dmimic = (p_mimic - 1) * q.
        Axpy(static_cast<float>(p_mimic - 1.0), q, std::span<float>(gm));
      }
      AddN3Gradient(mimic, gm);
      mimic_opt.StepSpan(mimic, 0, gm);
    }
  }
  return mimic;
}

Status BilinearModel::SaveParameters(std::ostream& out) const {
  KELPIE_RETURN_IF_ERROR(WriteMatrix(out, entity_embeddings_));
  return WriteMatrix(out, relation_embeddings_);
}

Status BilinearModel::LoadParameters(std::istream& in) {
  Matrix entities, relations;
  KELPIE_RETURN_IF_ERROR(ReadMatrix(in, entities));
  KELPIE_RETURN_IF_ERROR(ReadMatrix(in, relations));
  if (entities.rows() != entity_embeddings_.rows() ||
      entities.cols() != entity_embeddings_.cols() ||
      relations.rows() != relation_embeddings_.rows() ||
      relations.cols() != relation_embeddings_.cols()) {
    return Status::InvalidArgument("bilinear parameter shape mismatch");
  }
  entity_embeddings_ = std::move(entities);
  relation_embeddings_ = std::move(relations);
  return Status::Ok();
}

}  // namespace kelpie
