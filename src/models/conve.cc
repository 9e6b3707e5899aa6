#include "models/conve.h"

#include <bit>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"
#include "math/simd.h"
#include "math/vec.h"
#include "ml/batcher.h"
#include "ml/embedding_table.h"
#include "ml/optimizer.h"
#include "ml/serialization.h"

namespace kelpie {

namespace {

uint64_t PairKey(int32_t a, int32_t b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

/// Draws an inverted-dropout mask (entries 0 or 1/(1-p)) and applies it to
/// `values` in place.
void ApplyDropout(std::span<float> values, float p, Rng& rng,
                  std::vector<float>& mask) {
  mask.resize(values.size());
  const float keep_scale = 1.0f / (1.0f - p);
  // `Bernoulli(p) ? 0.0f : keep_scale` without a branch, which would
  // mispredict on the random draws: +0.0f is all-zero bits.
  const uint32_t keep_bits = std::bit_cast<uint32_t>(keep_scale);
  for (float& m : mask) {
    const uint32_t kept = rng.Bernoulli(p) ? 0u : ~0u;
    m = std::bit_cast<float>(keep_bits & kept);
  }
  simd::Mul(values, mask);
}

}  // namespace

ConvE::ConvE(size_t num_entities, size_t num_relations, TrainConfig config)
    : LinkPredictionModel(std::move(config)),
      num_base_relations_(num_relations),
      entity_embeddings_(num_entities, config_.dim),
      // Reciprocal-relation augmentation (the original ConvE training
      // protocol): relation r + num_relations is r's inverse, and head
      // queries <?, r, t> are answered as tail queries <t, r_inv, ?>.
      relation_embeddings_(2 * num_relations, config_.dim),
      entity_bias_(num_entities, 0.0f) {
  KELPIE_CHECK(config_.dim % config_.reshape_height == 0);
  conv_ = Conv2d(image_h(), image_w(), config_.conv_kernel,
                 config_.conv_kernel, config_.conv_channels);
  fc_ = DenseLayer(conv_.OutputSize(), config_.dim);
}

void ConvE::SharedGrads::Resize(const Conv2d& conv, const DenseLayer& fc) {
  conv_w.assign(conv.weights().size(), 0.0f);
  conv_b.assign(conv.bias().size(), 0.0f);
  fc_w.assign(fc.weights().size(), 0.0f);
  fc_b.assign(fc.bias().size(), 0.0f);
}

void ConvE::SharedGrads::Zero() {
  std::fill(conv_w.begin(), conv_w.end(), 0.0f);
  std::fill(conv_b.begin(), conv_b.end(), 0.0f);
  std::fill(fc_w.begin(), fc_w.end(), 0.0f);
  std::fill(fc_b.begin(), fc_b.end(), 0.0f);
}

void ConvE::ForwardMlp(std::span<const float> head_vec,
                       std::span<const float> rel_vec, ForwardCache& cache,
                       Rng* dropout_rng) const {
  const size_t dim = config_.dim;
  const size_t rw = image_w();
  const size_t rh = config_.reshape_height;
  cache.has_dropout = dropout_rng != nullptr;
  cache.image.resize(2 * dim);
  // Row-interleaved stacking: head row k at image row 2k, relation row k at
  // image row 2k+1, so every convolution window covers both inputs (plain
  // vertical stacking would confine head-relation interaction to the two
  // boundary rows, starving the model of multiplicative capacity at the
  // small dimensions this library uses).
  for (size_t k = 0; k < rh; ++k) {
    Copy(head_vec.subspan(k * rw, rw),
         std::span<float>(cache.image.data() + (2 * k) * rw, rw));
    Copy(rel_vec.subspan(k * rw, rw),
         std::span<float>(cache.image.data() + (2 * k + 1) * rw, rw));
  }
  if (dropout_rng != nullptr) {
    ApplyDropout(cache.image, config_.input_dropout, *dropout_rng,
                 cache.image_mask);
  }
  cache.conv_out.resize(conv_.OutputSize());
  conv_.Forward(cache.image, cache.conv_out);
  ReluInPlace(cache.conv_out);
  if (dropout_rng != nullptr) {
    ApplyDropout(cache.conv_out, config_.feature_dropout, *dropout_rng,
                 cache.conv_mask);
  }
  cache.v.resize(dim);
  fc_.Forward(cache.conv_out, cache.v);
  ReluInPlace(cache.v);
  if (dropout_rng != nullptr) {
    ApplyDropout(cache.v, config_.hidden_dropout, *dropout_rng,
                 cache.v_mask);
  }
}

void ConvE::BackwardMlp(const ForwardCache& cache, std::span<const float> dv,
                        SharedGrads* shared, std::span<float> grad_head,
                        std::span<float> grad_rel) const {
  const size_t dim = config_.dim;
  // Per-thread scratch: BackwardMlp is const and runs concurrently through
  // ScoreGradWrtHead, and it is called once per training example.
  struct Scratch {
    std::vector<float> dv_masked, d_conv, d_image;
  };
  thread_local Scratch scratch;
  // Hidden dropout (the backward of a dropout multiplies the gradient by
  // its stored mask), then ReLU on v.
  std::vector<float>& dv_masked = scratch.dv_masked;
  dv_masked.assign(dv.begin(), dv.end());
  if (cache.has_dropout) {
    simd::Mul(dv_masked, cache.v_mask);
  }
  ReluBackward(cache.v, dv_masked);
  // FC backward.
  std::vector<float>& d_conv = scratch.d_conv;
  d_conv.assign(conv_.OutputSize(), 0.0f);
  fc_.Backward(cache.conv_out, dv_masked,
               shared ? std::span<float>(shared->fc_w) : std::span<float>{},
               shared ? std::span<float>(shared->fc_b) : std::span<float>{},
               d_conv);
  // Feature-map dropout, then ReLU on conv activations.
  if (cache.has_dropout) {
    simd::Mul(d_conv, cache.conv_mask);
  }
  ReluBackward(cache.conv_out, d_conv);
  // Conv backward.
  const bool need_input_grad = !grad_head.empty() || !grad_rel.empty();
  std::vector<float>& d_image = scratch.d_image;
  if (need_input_grad) {
    d_image.assign(2 * dim, 0.0f);
  }
  conv_.Backward(
      cache.image, d_conv,
      shared ? std::span<float>(shared->conv_w) : std::span<float>{},
      shared ? std::span<float>(shared->conv_b) : std::span<float>{},
      need_input_grad ? std::span<float>(d_image) : std::span<float>{});
  if (cache.has_dropout && need_input_grad) {
    simd::Mul(d_image, cache.image_mask);
  }
  const size_t rw = image_w();
  const size_t rh = config_.reshape_height;
  if (!grad_head.empty()) {
    for (size_t k = 0; k < rh; ++k) {
      for (size_t i = 0; i < rw; ++i) {
        grad_head[k * rw + i] += d_image[(2 * k) * rw + i];
      }
    }
  }
  if (!grad_rel.empty()) {
    for (size_t k = 0; k < rh; ++k) {
      for (size_t i = 0; i < rw; ++i) {
        grad_rel[k * rw + i] += d_image[(2 * k + 1) * rw + i];
      }
    }
  }
}

float ConvE::Score(const Triple& t) const {
  // thread_local: the const scoring paths run millions of forwards per
  // extraction; reusing the cache keeps them allocation-free. ForwardMlp
  // overwrites every field it reads, so stale contents are harmless.
  thread_local ForwardCache cache;
  ForwardMlp(entity_embeddings_.Row(static_cast<size_t>(t.head)),
             relation_embeddings_.Row(static_cast<size_t>(t.relation)),
             cache);
  return Dot(cache.v, entity_embeddings_.Row(static_cast<size_t>(t.tail))) +
         entity_bias_[static_cast<size_t>(t.tail)];
}

void ConvE::ScoreAllTails(EntityId h, RelationId r,
                          std::span<float> out) const {
  ScoreAllTailsWithHeadVec(entity_embeddings_.Row(static_cast<size_t>(h)), r,
                           out);
}

void ConvE::ScoreAllTailsWithHeadVec(std::span<const float> head_vec,
                                     RelationId r,
                                     std::span<float> out) const {
  KELPIE_DCHECK(out.size() == num_entities());
  thread_local ForwardCache cache;
  ForwardMlp(head_vec, relation_embeddings_.Row(static_cast<size_t>(r)),
             cache);
  simd::GemvRowMajor(entity_embeddings_.Data().data(), num_entities(),
                     entity_dim(), cache.v.data(), out.data());
  // out[e] += 1.0f * b_e adds the bias exactly as `Dot(...) + b_e` would.
  simd::Axpy(1.0f, entity_bias_, out);
}

void ConvE::ScoreAllHeads(RelationId r, EntityId t,
                          std::span<float> out) const {
  ScoreAllHeadsWithTailVec(r, entity_embeddings_.Row(static_cast<size_t>(t)),
                           out);
}

void ConvE::ScoreAllHeadsWithTailVec(RelationId r,
                                     std::span<const float> tail_vec,
                                     std::span<float> out) const {
  // Head queries use the reciprocal relation: the candidate heads are the
  // "tails" of <t, r_inv, ?>, exactly as in training. This is also what
  // makes head ranking as cheap as tail ranking (one convolution).
  ScoreAllTailsWithHeadVec(tail_vec, ReciprocalOf(r), out);
}

std::optional<CandidateSweep> ConvE::TailSweepWithHeadVec(
    std::span<const float> head_vec, RelationId r) const {
  thread_local ForwardCache cache;
  ForwardMlp(head_vec, relation_embeddings_.Row(static_cast<size_t>(r)),
             cache);
  CandidateSweep sweep;
  sweep.kernel = CandidateSweep::Kernel::kDot;
  sweep.query.assign(cache.v.begin(), cache.v.end());
  sweep.bias = std::span<const float>(entity_bias_);
  return sweep;
}

std::optional<CandidateSweep> ConvE::HeadSweepWithTailVec(
    RelationId r, std::span<const float> tail_vec) const {
  // Same reciprocal-relation trick as ScoreAllHeadsWithTailVec.
  return TailSweepWithHeadVec(tail_vec, ReciprocalOf(r));
}

float ConvE::ScoreWithEntityVec(const Triple& t, EntityId which,
                                std::span<const float> vec) const {
  std::span<const float> h =
      (t.head == which) ? vec
                        : entity_embeddings_.Row(static_cast<size_t>(t.head));
  std::span<const float> tl =
      (t.tail == which) ? vec
                        : entity_embeddings_.Row(static_cast<size_t>(t.tail));
  thread_local ForwardCache cache;
  ForwardMlp(h, relation_embeddings_.Row(static_cast<size_t>(t.relation)),
             cache);
  float bias =
      (t.tail == which) ? 0.0f : entity_bias_[static_cast<size_t>(t.tail)];
  return Dot(cache.v, tl) + bias;
}

std::vector<float> ConvE::ScoreGradWrtHead(const Triple& t) const {
  thread_local ForwardCache cache;
  ForwardMlp(entity_embeddings_.Row(static_cast<size_t>(t.head)),
             relation_embeddings_.Row(static_cast<size_t>(t.relation)),
             cache);
  // dφ/dv = t embedding; backprop to the head half of the input image.
  std::vector<float> grad_head(config_.dim, 0.0f);
  BackwardMlp(cache, entity_embeddings_.Row(static_cast<size_t>(t.tail)),
              nullptr, grad_head, {});
  return grad_head;
}

std::vector<float> ConvE::ScoreGradWrtTail(const Triple& t) const {
  thread_local ForwardCache cache;
  ForwardMlp(entity_embeddings_.Row(static_cast<size_t>(t.head)),
             relation_embeddings_.Row(static_cast<size_t>(t.relation)),
             cache);
  return cache.v;  // φ is linear in the tail embedding.
}

Status ConvE::Train(const Dataset& dataset, Rng& rng,
                    const TrainControl& control) {
  InitMatrix(entity_embeddings_, InitScheme::kNormal, 0.1, rng);
  InitMatrix(relation_embeddings_, InitScheme::kNormal, 0.1, rng);
  std::fill(entity_bias_.begin(), entity_bias_.end(), 0.0f);
  conv_.Init(rng);
  fc_.Init(rng);
  last_train_report_ = TrainReport{};

  if (dataset.train().empty()) return Status::Ok();
  const size_t n_ent = num_entities();
  const size_t dim = config_.dim;

  // Reciprocal augmentation: every fact <h, r, t> also trains the inverse
  // sample <t, r_inv, h>.
  std::vector<Triple> train;
  train.reserve(2 * dataset.train().size());
  for (const Triple& t : dataset.train()) {
    train.push_back(t);
    train.emplace_back(t.tail, ReciprocalOf(t.relation), t.head);
  }

  // Train-only label sets for 1-N scoring (the all-splits filter map of the
  // Dataset would leak validation/test answers into training).
  std::unordered_map<uint64_t, std::vector<EntityId>> train_tails;
  for (const Triple& t : train) {
    train_tails[PairKey(t.head, t.relation)].push_back(t.tail);
  }

  DenseAdam conv_w_opt(conv_.weights().rows(), conv_.weights().cols(),
                       config_.conv_lr);
  DenseAdam conv_b_opt(1, conv_.bias().size(), config_.conv_lr);
  DenseAdam fc_w_opt(fc_.weights().rows(), fc_.weights().cols(),
                     config_.conv_lr);
  DenseAdam fc_b_opt(1, fc_.bias().size(), config_.conv_lr);
  // Embedding tables and the entity bias use the row optimizer; the shared
  // conv/FC layers use DenseAdam.
  RowAdagrad entity_opt(n_ent, dim, config_.learning_rate);
  RowAdagrad relation_opt(relation_embeddings_.rows(), dim,
                          config_.learning_rate);
  RowAdagrad bias_opt(1, n_ent, config_.learning_rate);

  SharedGrads shared;
  shared.Resize(conv_, fc_);
  Batcher batcher(train.size(), config_.batch_size);

  ForwardCache cache;
  std::vector<float> scores(n_ent);
  std::vector<float> dv(dim), gh(dim), gr(dim), ge(dim);
  std::vector<float> bias_grad(n_ent, 0.0f);
  const float smooth_pos =
      1.0f - config_.label_smoothing +
      config_.label_smoothing / static_cast<float>(n_ent);
  const float smooth_neg = config_.label_smoothing / static_cast<float>(n_ent);

  const float clip = config_.grad_clip_norm;
  // Clip activations are tallied in a local (the clip sits inside the
  // innermost gradient loop) and flushed to the registry once per run.
  uint64_t clip_activations = 0;
  auto maybe_clip = [clip, &clip_activations](std::span<float> g) {
    if (clip > 0.0f && ProjectToL2Ball(g, clip)) ++clip_activations;
  };
  // Embedding-row optimizer steps, tallied and flushed the same way.
  uint64_t row_steps = 0;
  // 1-N labels of the current example; only the positions set for it are
  // cleared afterwards.
  std::vector<char> is_positive(n_ent, 0);

  GuardedTrainHooks hooks;
  hooks.params = [&] {
    std::vector<std::span<float>> spans{
        entity_embeddings_.Data(),   relation_embeddings_.Data(),
        std::span<float>(entity_bias_), conv_.weights().Data(),
        conv_.bias(),                fc_.weights().Data(),
        fc_.bias(),                  entity_opt.AccumData(),
        relation_opt.AccumData(),    bias_opt.AccumData()};
    for (std::span<float> s :
         {conv_w_opt.MomentMData(), conv_w_opt.MomentVData(),
          conv_b_opt.MomentMData(), conv_b_opt.MomentVData(),
          fc_w_opt.MomentMData(), fc_w_opt.MomentVData(),
          fc_b_opt.MomentMData(), fc_b_opt.MomentVData()}) {
      spans.push_back(s);
    }
    return spans;
  };
  hooks.save_counters = [&] {
    return std::vector<uint64_t>{
        static_cast<uint64_t>(conv_w_opt.step_count()),
        static_cast<uint64_t>(conv_b_opt.step_count()),
        static_cast<uint64_t>(fc_w_opt.step_count()),
        static_cast<uint64_t>(fc_b_opt.step_count())};
  };
  hooks.restore_counters = [&](const std::vector<uint64_t>& counters) {
    conv_w_opt.set_step_count(static_cast<int64_t>(counters[0]));
    conv_b_opt.set_step_count(static_cast<int64_t>(counters[1]));
    fc_w_opt.set_step_count(static_cast<int64_t>(counters[2]));
    fc_b_opt.set_step_count(static_cast<int64_t>(counters[3]));
  };
  hooks.run_epoch = [&](size_t /*epoch*/, float lr_scale) -> double {
    entity_opt.set_lr_scale(lr_scale);
    relation_opt.set_lr_scale(lr_scale);
    bias_opt.set_lr_scale(lr_scale);
    conv_w_opt.set_lr_scale(lr_scale);
    conv_b_opt.set_lr_scale(lr_scale);
    fc_w_opt.set_lr_scale(lr_scale);
    fc_b_opt.set_lr_scale(lr_scale);
    double epoch_loss = 0.0;
    batcher.Reshuffle(rng);
    for (std::span<const size_t> batch = batcher.NextBatch(); !batch.empty();
         batch = batcher.NextBatch()) {
      shared.Zero();
      for (size_t idx : batch) {
        const Triple& triple = train[idx];
        const size_t h = static_cast<size_t>(triple.head);
        const size_t r = static_cast<size_t>(triple.relation);

        ForwardMlp(entity_embeddings_.Row(h), relation_embeddings_.Row(r),
                   cache, &rng);
        simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                           cache.v.data(), scores.data());
        simd::Axpy(1.0f, entity_bias_, scores);
        // 1-N BCE with label smoothing; labels from train-only tails.
        auto it = train_tails.find(PairKey(triple.head, triple.relation));
        KELPIE_DCHECK(it != train_tails.end());
        for (EntityId t : it->second) {
          is_positive[static_cast<size_t>(t)] = 1;
        }
        Fill(std::span<float>(dv), 0.0f);
        std::fill(bias_grad.begin(), bias_grad.end(), 0.0f);
        const float inv_n = 1.0f / static_cast<float>(n_ent);
        epoch_loss += -std::log(std::max<double>(
            Sigmoid(scores[static_cast<size_t>(triple.tail)]), 1e-30));
        for (size_t e = 0; e < n_ent; ++e) {
          float label = is_positive[e] ? smooth_pos : smooth_neg;
          float dphi = (Sigmoid(scores[e]) - label) * inv_n;
          if (std::fabs(dphi) < 1e-9f) continue;
          // dL/dt_e = dphi * v, applied immediately, then dv += dphi * t_e
          // (updated): one fused pass unless clipping must see the formed
          // gradient (the same element arithmetic either way).
          ++row_steps;
          bias_grad[e] = dphi;
          if (clip <= 0.0f) {
            entity_opt.StepCandidateRow(entity_embeddings_, e, cache.v, dphi,
                                        dv);
            continue;
          }
          for (size_t i = 0; i < dim; ++i) {
            ge[i] = dphi * cache.v[i];
          }
          maybe_clip(ge);
          entity_opt.Step(entity_embeddings_, e, ge);
          Axpy(dphi, entity_embeddings_.Row(e), std::span<float>(dv));
        }
        for (EntityId t : it->second) {
          is_positive[static_cast<size_t>(t)] = 0;
        }
        bias_opt.StepSpan(entity_bias_, 0, bias_grad);

        Fill(std::span<float>(gh), 0.0f);
        Fill(std::span<float>(gr), 0.0f);
        BackwardMlp(cache, dv, &shared, gh, gr);
        maybe_clip(gh);
        maybe_clip(gr);
        entity_opt.Step(entity_embeddings_, h, gh);
        relation_opt.Step(relation_embeddings_, r, gr);
        row_steps += 3;  // the bias row, h and r
      }
      // Shared weights step once per batch.
      conv_w_opt.Step(conv_.weights(), shared.conv_w);
      conv_b_opt.StepSpan(conv_.bias(), shared.conv_b);
      fc_w_opt.Step(fc_.weights(), shared.fc_w);
      fc_b_opt.StepSpan(fc_.bias(), shared.fc_b);
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

std::vector<float> ConvE::PostTrainMimic(const Dataset& dataset,
                                         EntityId entity,
                                         const std::vector<Triple>& facts,
                                         Rng& rng,
                                         std::span<const float> warm_init)
    const {
  (void)dataset;
  const size_t n_ent = num_entities();
  const size_t dim = config_.dim;
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

  // Every fact becomes a mimic-as-head sample, using the reciprocal
  // relation when the mimic is the fact's tail — mirroring training.
  std::vector<Triple> samples;
  samples.reserve(facts.size());
  for (const Triple& f : facts) {
    if (f.head == entity) {
      samples.push_back(f);
    } else {
      samples.emplace_back(entity, ReciprocalOf(f.relation), f.head);
    }
  }
  std::unordered_map<uint64_t, std::vector<EntityId>> mimic_tails;
  for (const Triple& s : samples) {
    mimic_tails[PairKey(entity, s.relation)].push_back(s.tail);
  }

  ForwardCache cache;
  std::vector<float> scores(n_ent);
  std::vector<float> dv(dim), gm(dim);
  std::vector<char> is_positive(n_ent, 0);
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const float smooth_pos =
      1.0f - config_.label_smoothing +
      config_.label_smoothing / static_cast<float>(n_ent);
  const float smooth_neg = config_.label_smoothing / static_cast<float>(n_ent);

  for (size_t epoch = 0; epoch < config_.post_training_epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const Triple& sample = samples[idx];
      Fill(std::span<float>(gm), 0.0f);
      // Mimic as head of the (possibly reciprocal) query: full 1-N BCE;
      // the gradient reaches the mimic through the convolution input while
      // every other parameter stays frozen.
      ForwardMlp(mimic,
                 relation_embeddings_.Row(static_cast<size_t>(sample.relation)),
                 cache, &rng);
      simd::GemvRowMajor(entity_embeddings_.Data().data(), n_ent, dim,
                         cache.v.data(), scores.data());
      simd::Axpy(1.0f, entity_bias_, scores);
      auto it = mimic_tails.find(PairKey(entity, sample.relation));
      if (it != mimic_tails.end()) {
        for (EntityId t : it->second) {
          is_positive[static_cast<size_t>(t)] = 1;
        }
      }
      // scores[e] becomes dphi_e; dv = sum_e dphi_e * t_e in row order,
      // with no skip.
      const float inv_n = 1.0f / static_cast<float>(n_ent);
      for (size_t e = 0; e < n_ent; ++e) {
        float label = is_positive[e] ? smooth_pos : smooth_neg;
        scores[e] = (Sigmoid(scores[e]) - label) * inv_n;
      }
      if (it != mimic_tails.end()) {
        for (EntityId t : it->second) {
          is_positive[static_cast<size_t>(t)] = 0;
        }
      }
      Fill(std::span<float>(dv), 0.0f);
      simd::AxpyRows(entity_embeddings_.Data().data(), n_ent, dim,
                     scores.data(), 0.0f, dv.data());
      BackwardMlp(cache, dv, nullptr, gm, {});
      mimic_opt.StepSpan(mimic, 0, gm);
    }
  }
  return mimic;
}

Status ConvE::SaveParameters(std::ostream& out) const {
  KELPIE_RETURN_IF_ERROR(WriteMatrix(out, entity_embeddings_));
  KELPIE_RETURN_IF_ERROR(WriteMatrix(out, relation_embeddings_));
  KELPIE_RETURN_IF_ERROR(WriteFloats(out, entity_bias_));
  KELPIE_RETURN_IF_ERROR(WriteMatrix(out, conv_.weights()));
  KELPIE_RETURN_IF_ERROR(WriteFloats(out, conv_.bias()));
  KELPIE_RETURN_IF_ERROR(WriteMatrix(out, fc_.weights()));
  return WriteFloats(out, fc_.bias());
}

Status ConvE::LoadParameters(std::istream& in) {
  Matrix entities, relations, conv_w, fc_w;
  std::vector<float> bias, conv_b, fc_b;
  KELPIE_RETURN_IF_ERROR(ReadMatrix(in, entities));
  KELPIE_RETURN_IF_ERROR(ReadMatrix(in, relations));
  KELPIE_RETURN_IF_ERROR(ReadFloats(in, bias));
  KELPIE_RETURN_IF_ERROR(ReadMatrix(in, conv_w));
  KELPIE_RETURN_IF_ERROR(ReadFloats(in, conv_b));
  KELPIE_RETURN_IF_ERROR(ReadMatrix(in, fc_w));
  KELPIE_RETURN_IF_ERROR(ReadFloats(in, fc_b));
  if (entities.rows() != entity_embeddings_.rows() ||
      entities.cols() != entity_embeddings_.cols() ||
      relations.rows() != relation_embeddings_.rows() ||
      relations.cols() != relation_embeddings_.cols() ||
      bias.size() != entity_bias_.size() ||
      conv_w.rows() != conv_.weights().rows() ||
      conv_w.cols() != conv_.weights().cols() ||
      conv_b.size() != conv_.bias().size() ||
      fc_w.rows() != fc_.weights().rows() ||
      fc_w.cols() != fc_.weights().cols() ||
      fc_b.size() != fc_.bias().size()) {
    return Status::InvalidArgument("ConvE parameter shape mismatch");
  }
  entity_embeddings_ = std::move(entities);
  relation_embeddings_ = std::move(relations);
  entity_bias_ = std::move(bias);
  conv_.weights() = std::move(conv_w);
  conv_.bias() = std::move(conv_b);
  fc_.weights() = std::move(fc_w);
  fc_.bias() = std::move(fc_b);
  return Status::Ok();
}

}  // namespace kelpie
