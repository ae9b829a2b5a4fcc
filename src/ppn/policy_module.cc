#include "ppn/policy_module.h"

#include "common/check.h"
#include "market/dataset.h"
#include "ppn/eiie.h"
#include "ppn/policy_network.h"

namespace ppn::core {

ag::Var PolicyModule::Features(const ag::Var& windows) const {
  PPN_CHECK_EQ(windows->value().ndim(), 4);
  PPN_CHECK_EQ(windows->value().dim(1), config_.num_assets);
  PPN_CHECK_EQ(windows->value().dim(2), config_.window);
  PPN_CHECK_EQ(windows->value().dim(3), market::kNumPriceFields);
  ag::Var centered =
      ag::MulScalar(ag::AddScalar(windows, -1.0f), config_.input_scale);
  return ExtractFeatures(centered);
}

ag::Var PolicyModule::Decide(const ag::Var& features,
                             const ag::Var& prev_actions) const {
  PPN_CHECK(decision_ != nullptr) << "BuildDecisionHead was never called";
  const int64_t m = config_.num_assets;
  PPN_CHECK_EQ(features->value().ndim(), 3);
  const int64_t batch = features->value().dim(0);
  PPN_CHECK_EQ(features->value().dim(1), m);
  const int64_t feature_size = features->value().dim(2) + 1;
  PPN_CHECK_EQ(prev_actions->value().ndim(), 2);
  PPN_CHECK_EQ(prev_actions->value().dim(0), batch);
  PPN_CHECK_EQ(prev_actions->value().dim(1), m);

  // Recursive mechanism: concatenate a_{t-1} as one more feature column.
  ag::Var prev_column = ag::Reshape(prev_actions, {batch, m, 1});
  ag::Var with_prev = ag::ConcatVars({features, prev_column}, 2);
  // Cash row: a fixed-bias feature row appended as asset 0' (the paper's
  // "concatenate the cash bias into all feature maps").
  ag::Var cash_row = ag::Constant(
      Tensor::Full({batch, 1, feature_size}, config_.cash_bias));
  ag::Var full = ag::ConcatVars({cash_row, with_prev}, 1);  // [B, m+1, F+1].
  // Decision 1×1 conv == shared linear vote per asset row.
  ag::Var flat = ag::Reshape(full, {batch * (m + 1), feature_size});
  ag::Var logits = ag::Reshape(decision_->Forward(flat), {batch, m + 1});
  return ag::SoftmaxRows(logits);
}

ag::Var PolicyModule::Forward(const ag::Var& windows,
                              const ag::Var& prev_actions) {
  return Decide(Features(windows), prev_actions);
}

void PolicyModule::BuildDecisionHead(int64_t feature_size, Rng* init_rng) {
  PPN_CHECK(decision_ == nullptr);
  // +1 for the recursive previous-action column.
  decision_ = std::make_unique<nn::Linear>(feature_size + 1, 1, init_rng,
                                           /*use_bias=*/false);
  RegisterSubmodule("decision", decision_.get());
}

std::unique_ptr<PolicyModule> MakePolicy(const PolicyConfig& config,
                                         Rng* init_rng, Rng* dropout_rng) {
  if (config.variant == PolicyVariant::kEiie) {
    return std::make_unique<EiieNetwork>(config, init_rng);
  }
  return std::make_unique<PolicyNetwork>(config, init_rng, dropout_rng);
}

}  // namespace ppn::core
