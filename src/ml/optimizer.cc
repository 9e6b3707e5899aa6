#include "ml/optimizer.h"

#include <cmath>

#include "common/logging.h"
#include "math/simd.h"

namespace kelpie {

void RowAdagrad::Step(Matrix& params, size_t row,
                      std::span<const float> grad) {
  StepSpan(params.Row(row), row, grad);
}

void RowAdagrad::StepSpan(std::span<float> params, size_t row,
                          std::span<const float> grad) {
  KELPIE_DCHECK(params.size() == grad.size());
  simd::AdagradRowStep(params.data(), accum_.Row(row).data(), grad.data(),
                       params.size(), learning_rate_ * lr_scale_, epsilon_);
}

void RowAdagrad::StepCandidateRow(Matrix& params, size_t row,
                                  std::span<const float> query, float coeff,
                                  std::span<float> out) {
  std::span<float> p = params.Row(row);
  KELPIE_DCHECK(p.size() == query.size() && p.size() == out.size());
  simd::AdagradCandidateRowStep(p.data(), accum_.Row(row).data(),
                                query.data(), coeff, p.size(),
                                learning_rate_ * lr_scale_, epsilon_,
                                out.data());
}

void DenseAdam::Step(Matrix& params, std::span<const float> grad) {
  StepSpan(params.Data(), grad);
}

void DenseAdam::StepSpan(std::span<float> params, std::span<const float> grad) {
  KELPIE_DCHECK(params.size() == grad.size());
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  std::span<float> p = params;
  std::span<float> m = m_.Data();
  std::span<float> v = v_.Data();
  const float lr = learning_rate_ * lr_scale_;
  for (size_t i = 0; i < p.size(); ++i) {
    m[i] = beta1_ * m[i] + (1.0f - beta1_) * grad[i];
    v[i] = beta2_ * v[i] + (1.0f - beta2_) * grad[i] * grad[i];
    float m_hat = static_cast<float>(m[i] / bias1);
    float v_hat = static_cast<float>(v[i] / bias2);
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon_);
  }
}

void SgdStep(std::span<float> params, std::span<const float> grad,
             float learning_rate) {
  KELPIE_DCHECK(params.size() == grad.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i] -= learning_rate * grad[i];
  }
}

}  // namespace kelpie
