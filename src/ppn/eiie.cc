#include "ppn/eiie.h"

#include "common/check.h"
#include "market/dataset.h"

namespace ppn::core {

namespace {

// conv[1×3] along time, VALID padding (EIIE uses no padding).
Conv2dGeometry Valid1x3() {
  Conv2dGeometry g;
  g.kernel_h = 1;
  g.kernel_w = 3;
  return g;
}

}  // namespace

EiieNetwork::EiieNetwork(const PolicyConfig& config, Rng* init_rng)
    : PolicyModule(config), hidden_channels_(config.block2_channels) {
  PPN_CHECK_GE(config.window, 4);
  conv1_ = std::make_unique<nn::Conv2dLayer>(
      market::kNumPriceFields, config.block1_channels, Valid1x3(), init_rng);
  conv2_ = std::make_unique<nn::Conv2dLayer>(
      config.block1_channels, hidden_channels_,
      nn::TimeCollapseConvGeometry(config.window - 2), init_rng);
  RegisterSubmodule("conv1", conv1_.get());
  RegisterSubmodule("conv2", conv2_.get());
  BuildDecisionHead(hidden_channels_, init_rng);
}

ag::Var EiieNetwork::ExtractFeatures(const ag::Var& centered) const {
  const int64_t batch = centered->value().dim(0);
  ag::Var conv_input = ag::Permute4(centered, {0, 3, 1, 2});  // [B,4,m,k].
  ag::Var h = ag::Relu(conv1_->Forward(conv_input));         // [B,C1,m,k-2].
  h = ag::Relu(conv2_->Forward(h));                          // [B,C2,m,1].
  return ag::Reshape(ag::Permute4(h, {0, 2, 3, 1}),
                     {batch, config().num_assets, hidden_channels_});
}

}  // namespace ppn::core
