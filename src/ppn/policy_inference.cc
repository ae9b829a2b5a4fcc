#include "ppn/policy_inference.h"

#include <cstring>
#include <numeric>

#include "autograd/variable.h"
#include "common/check.h"

namespace ppn::core {

PolicyInference::PolicyInference(PolicyModule* policy) : policy_(policy) {
  PPN_CHECK(policy != nullptr);
  policy_->SetTraining(false);
}

const PolicyConfig& PolicyInference::config() const {
  return policy_->config();
}

void PolicyInference::EnsureEvalMode() const { policy_->SetTraining(false); }

Tensor PolicyInference::DecideBatch(const Tensor& windows,
                                    const std::vector<int64_t>& window_of_row,
                                    const Tensor& prev_actions) const {
  // `Features` checks the window shape and `Decide` the previous actions.
  const int64_t batch = static_cast<int64_t>(window_of_row.size());
  PPN_CHECK_GT(batch, 0);
  ag::InferenceMode inference;
  const Tensor features = policy_->Features(ag::Constant(windows))->value();
  // Broadcast each window's feature rows to the batch rows deciding on it.
  const int64_t num_windows = features.dim(0);
  const int64_t feature_numel = features.dim(1) * features.dim(2);
  Tensor row_features =
      Tensor::Uninitialized({batch, features.dim(1), features.dim(2)});
  for (int64_t row = 0; row < batch; ++row) {
    const int64_t w = window_of_row[row];
    PPN_CHECK_GE(w, 0);
    PPN_CHECK_LT(w, num_windows);
    std::memcpy(row_features.MutableData() + row * feature_numel,
                features.Data() + w * feature_numel,
                static_cast<size_t>(feature_numel) * sizeof(float));
  }
  return policy_
      ->Decide(ag::Constant(row_features), ag::Constant(prev_actions))
      ->value();
}

Tensor PolicyInference::DecideBatch(const Tensor& windows,
                                    const Tensor& prev_actions) const {
  PPN_CHECK_EQ(windows.ndim(), 4);
  std::vector<int64_t> identity(static_cast<size_t>(windows.dim(0)));
  std::iota(identity.begin(), identity.end(), int64_t{0});
  return DecideBatch(windows, identity, prev_actions);
}

}  // namespace ppn::core
