#include "ppn/eiie.h"

#include "common/check.h"
#include "market/dataset.h"

namespace ppn::core {

EiieNetwork::EiieNetwork(const PolicyConfig& config, Rng* init_rng)
    : PolicyModule(config), hidden_channels_(config.block2_channels) {
  PPN_CHECK_GE(config.window, 4);
  // conv[1×3] then conv[1×(k-2)] along time, VALID padding (EIIE uses no
  // padding).
  conv1_ = std::make_unique<nn::Conv2dLayer>(
      market::kNumPriceFields, config.block1_channels,
      nn::ValidTimeConvGeometry(3), init_rng);
  conv2_ = std::make_unique<nn::Conv2dLayer>(
      config.block1_channels, hidden_channels_,
      nn::ValidTimeConvGeometry(config.window - 2), init_rng);
  RegisterSubmodule("conv1", conv1_.get());
  RegisterSubmodule("conv2", conv2_.get());
  BuildDecisionHead(hidden_channels_, init_rng);
}

ag::Var EiieNetwork::ExtractFeatures(const ag::Var& centered) const {
  const int64_t batch = centered->value().dim(0);
  ag::Var h = conv1_->Forward(centered, {.relu = true});  // [B,m,k-2,C1].
  h = conv2_->Forward(h, {.relu = true});                 // [B,m,1,C2].
  return ag::Reshape(h, {batch, config().num_assets, hidden_channels_});
}

}  // namespace ppn::core
