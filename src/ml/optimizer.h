#ifndef KELPIE_ML_OPTIMIZER_H_
#define KELPIE_ML_OPTIMIZER_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "math/matrix.h"

namespace kelpie {

/// Per-row Adagrad for embedding tables. Each parameter keeps an accumulated
/// squared gradient, allocated for the whole table; a step reads and writes
/// only its own row. This is the optimizer the ComplEx/DistMult trainers use
/// (following Lacroix et al.'s canonical-decomposition setup), and ConvE's
/// embedding tables and entity bias.
class RowAdagrad {
 public:
  RowAdagrad() = default;

  /// Allocates accumulators shaped like `params`.
  RowAdagrad(size_t rows, size_t cols, float learning_rate,
             float epsilon = 1e-8f)
      : accum_(rows, cols), learning_rate_(learning_rate), epsilon_(epsilon) {}

  /// Applies one Adagrad step to `params` row `row` with gradient `grad`.
  void Step(Matrix& params, size_t row, std::span<const float> grad);

  /// Applies a step to an arbitrary parameter span using accumulator row
  /// `row` (used for mimic rows, which live outside the main table).
  void StepSpan(std::span<float> params, size_t row,
                std::span<const float> grad);

  /// Fused 1-N candidate row: steps `params` row `row` with gradient
  /// coeff * query, then adds coeff * (updated row) to `out`. Bit-identical
  /// to forming that gradient, calling Step and then Axpy (DESIGN.md §11).
  void StepCandidateRow(Matrix& params, size_t row,
                        std::span<const float> query, float coeff,
                        std::span<float> out);

  float learning_rate() const { return learning_rate_; }

  /// Scales the effective learning rate (guarded training backs this off
  /// after a divergence). 1.0 is a bitwise no-op.
  void set_lr_scale(float scale) { lr_scale_ = scale; }
  float lr_scale() const { return lr_scale_; }

  /// Accumulator state, exposed so guarded training can snapshot/rewind it
  /// together with the parameters it conditions.
  std::span<float> AccumData() { return accum_.Data(); }

 private:
  Matrix accum_;
  float learning_rate_ = 0.0f;
  float lr_scale_ = 1.0f;
  float epsilon_ = 1e-8f;
};

/// Dense Adam optimizer for a single parameter matrix; used for the ConvE
/// convolution/FC weights and, with a 1-row matrix, for bias vectors.
class DenseAdam {
 public:
  DenseAdam() = default;

  DenseAdam(size_t rows, size_t cols, float learning_rate,
            float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f)
      : m_(rows, cols),
        v_(rows, cols),
        learning_rate_(learning_rate),
        beta1_(beta1),
        beta2_(beta2),
        epsilon_(epsilon) {}

  /// Applies one Adam step. `grad` must have the same total size as the
  /// parameter matrix.
  void Step(Matrix& params, std::span<const float> grad);

  /// Applies one Adam step to a flat parameter span (e.g. a bias vector);
  /// the state matrix must have been sized to match.
  void StepSpan(std::span<float> params, std::span<const float> grad);

  /// See RowAdagrad::set_lr_scale.
  void set_lr_scale(float scale) { lr_scale_ = scale; }
  float lr_scale() const { return lr_scale_; }

  /// Moment state and step counter, exposed for guarded-training
  /// snapshot/rewind (the counter must rewind with the moments or the bias
  /// correction desynchronizes).
  std::span<float> MomentMData() { return m_.Data(); }
  std::span<float> MomentVData() { return v_.Data(); }
  int64_t step_count() const { return t_; }
  void set_step_count(int64_t t) { t_ = t; }

 private:
  Matrix m_;
  Matrix v_;
  float learning_rate_ = 0.0f;
  float lr_scale_ = 1.0f;
  float beta1_ = 0.9f;
  float beta2_ = 0.999f;
  float epsilon_ = 1e-8f;
  int64_t t_ = 0;
};

/// Plain SGD helper: params -= lr * grad. TransE's original optimizer.
void SgdStep(std::span<float> params, std::span<const float> grad,
             float learning_rate);

}  // namespace kelpie

#endif  // KELPIE_ML_OPTIMIZER_H_
