#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"

namespace ppn::nn {

Adam::Adam(std::vector<ag::Var> parameters, float learning_rate, float beta1,
           float beta2, float epsilon, float weight_decay)
    : parameters_(std::move(parameters)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  for (const ag::Var& p : parameters_) {
    PPN_CHECK(p != nullptr);
    PPN_CHECK(p->requires_grad()) << "optimizer given a non-trainable leaf";
  }
  PPN_CHECK_GE(weight_decay, 0.0f);
  PPN_CHECK_GT(learning_rate, 0.0f);
  PPN_CHECK(beta1 >= 0.0f && beta1 < 1.0f);
  PPN_CHECK(beta2 >= 0.0f && beta2 < 1.0f);
  first_moment_.resize(parameters_.size());
  second_moment_.resize(parameters_.size());
  for (size_t i = 0; i < parameters_.size(); ++i) {
    first_moment_[i].assign(parameters_[i]->numel(), 0.0f);
    second_moment_[i].assign(parameters_[i]->numel(), 0.0f);
  }
}

double Adam::ClipGradNorm(double max_norm) {
  PPN_CHECK_GT(max_norm, 0.0);
  double total_sq = 0.0;
  for (const ag::Var& p : parameters_) {
    if (!p->has_grad()) continue;
    const float* g = p->grad().Data();
    for (int64_t i = 0; i < p->numel(); ++i) {
      total_sq += static_cast<double>(g[i]) * g[i];
    }
  }
  const double norm = std::sqrt(total_sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (const ag::Var& p : parameters_) {
      if (!p->has_grad()) continue;
      // Scaling through AccumulateGrad would add; mutate in place instead.
      float* g = const_cast<float*>(p->grad().Data());
      for (int64_t i = 0; i < p->numel(); ++i) g[i] *= scale;
    }
  }
  return norm;
}

void Adam::SaveState(ckpt::BinWriter* writer) const {
  PPN_CHECK(writer != nullptr);
  writer->WriteI64(step_count_);
  writer->WriteU64(first_moment_.size());
  for (size_t i = 0; i < first_moment_.size(); ++i) {
    writer->WriteI64(static_cast<int64_t>(first_moment_[i].size()));
    writer->WriteF32Array(first_moment_[i].data(), first_moment_[i].size());
    writer->WriteF32Array(second_moment_[i].data(), second_moment_[i].size());
  }
}

bool Adam::LoadState(ckpt::BinReader* reader, std::string* error) {
  PPN_CHECK(reader != nullptr);
  PPN_CHECK(error != nullptr);
  int64_t step_count = 0;
  uint64_t slots = 0;
  if (!reader->ReadI64(&step_count) || !reader->ReadU64(&slots)) {
    *error = "adam state: short read on header";
    return false;
  }
  if (step_count < 0 || slots != first_moment_.size()) {
    *error = "adam state: stored " + std::to_string(slots) +
             " parameter slots, optimizer has " +
             std::to_string(first_moment_.size());
    return false;
  }
  for (size_t i = 0; i < first_moment_.size(); ++i) {
    int64_t numel = 0;
    if (!reader->ReadI64(&numel) ||
        numel != static_cast<int64_t>(first_moment_[i].size())) {
      *error = "adam state: moment size mismatch at slot " +
               std::to_string(i);
      return false;
    }
    if (!reader->ReadF32Array(first_moment_[i].data(), numel) ||
        !reader->ReadF32Array(second_moment_[i].data(), numel)) {
      *error = "adam state: short read in moments at slot " +
               std::to_string(i);
      return false;
    }
  }
  step_count_ = step_count;
  return true;
}

void Adam::Step() {
  ++step_count_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  const float corrected_lr =
      learning_rate_ * static_cast<float>(std::sqrt(bias2) / bias1);
  for (size_t i = 0; i < parameters_.size(); ++i) {
    ag::Var& p = parameters_[i];
    if (!p->has_grad()) continue;
    const float* g = p->grad().Data();
    float* value = p->mutable_value()->MutableData();
    float* m = first_moment_[i].data();
    float* v = second_moment_[i].data();
    const int64_t numel = p->numel();
    // Elementwise with disjoint writes: bit-identical at any thread count.
#ifdef _OPENMP
#pragma omp parallel for if (InnerParallelEnabled() && numel > 65536) \
    schedule(static)
#endif
    for (int64_t j = 0; j < numel; ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      value[j] -= corrected_lr * m[j] / (std::sqrt(v[j]) + epsilon_) +
                  learning_rate_ * weight_decay_ * value[j];
    }
  }
}

}  // namespace ppn::nn
