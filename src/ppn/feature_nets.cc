#include "ppn/feature_nets.h"

#include "common/check.h"

namespace ppn::core {

// ------------------------------------------------- SequentialInfoNet ----

SequentialInfoNet::SequentialInfoNet(const PolicyConfig& config, Rng* rng)
    : num_assets_(config.num_assets),
      window_(config.window),
      hidden_(config.lstm_hidden),
      lstm_(market::kNumPriceFields, config.lstm_hidden, rng) {
  RegisterSubmodule("lstm", &lstm_);
}

ag::Var SequentialInfoNet::Forward(const ag::Var& windows) const {
  PPN_CHECK_EQ(windows->value().ndim(), 4);
  const int64_t batch = windows->value().dim(0);
  PPN_CHECK_EQ(windows->value().dim(1), num_assets_);
  PPN_CHECK_EQ(windows->value().dim(2), window_);
  // Fold assets into the batch dimension: the LSTM weights are shared
  // across assets and each asset's series is processed independently.
  ag::Var folded = ag::Reshape(
      windows, {batch * num_assets_, window_, market::kNumPriceFields});
  ag::Var last_hidden = lstm_.ForwardLastHidden(folded);
  return ag::Reshape(last_hidden, {batch, num_assets_, hidden_});
}

// -------------------------------------------------- TemporalConvBlock ----

TemporalConvBlock::TemporalConvBlock(int64_t in_channels, int64_t out_channels,
                                     int64_t dilation, int64_t num_assets,
                                     bool correlational, float dropout,
                                     Rng* init_rng, Rng* dropout_rng)
    : correlational_(correlational),
      dropout_(dropout),
      dropout_rng_(dropout_rng),
      dconv1_(in_channels, out_channels,
              nn::CausalTimeConvGeometry(3, dilation), init_rng),
      dconv2_(out_channels, out_channels,
              nn::CausalTimeConvGeometry(3, dilation), init_rng) {
  RegisterSubmodule("dconv1", &dconv1_);
  RegisterSubmodule("dconv2", &dconv2_);
  if (correlational_) {
    cconv_ = std::make_unique<nn::Conv2dLayer>(
        out_channels, out_channels, nn::CorrelationalConvGeometry(num_assets),
        init_rng);
    RegisterSubmodule("cconv", cconv_.get());
  }
}

ag::Var TemporalConvBlock::Forward(const ag::Var& input) const {
  // Each conv → dropout → ReLU is one conv op with its output pass.
  const ConvOutputPass pass{.dropout = training() ? dropout_ : 0.0f,
                            .rng = dropout_rng_,
                            .relu = true};
  ag::Var h = dconv1_.Forward(input, pass);
  h = dconv2_.Forward(h, pass);
  if (correlational_) h = cconv_->Forward(h, pass);
  return h;
}

// ------------------------------------------------- CorrelationInfoNet ----

CorrelationInfoNet::CorrelationInfoNet(const PolicyConfig& config,
                                       bool correlational, Rng* init_rng,
                                       Rng* dropout_rng, bool collapse_time)
    : num_assets_(config.num_assets),
      window_(config.window),
      channels2_(config.block2_channels),
      block1_(market::kNumPriceFields, config.block1_channels,
              /*dilation=*/1, config.num_assets, correlational,
              config.dropout, init_rng, dropout_rng),
      block2_(config.block1_channels, config.block2_channels,
              /*dilation=*/2, config.num_assets, correlational,
              config.dropout, init_rng, dropout_rng),
      block3_(config.block2_channels, config.block2_channels,
              /*dilation=*/4, config.num_assets, correlational,
              config.dropout, init_rng, dropout_rng) {
  RegisterSubmodule("block1", &block1_);
  RegisterSubmodule("block2", &block2_);
  RegisterSubmodule("block3", &block3_);
  if (collapse_time) {
    conv4_ = std::make_unique<nn::Conv2dLayer>(
        config.block2_channels, config.block2_channels,
        nn::ValidTimeConvGeometry(config.window), init_rng);
    RegisterSubmodule("conv4", conv4_.get());
  }
}

ag::Var CorrelationInfoNet::ForwardSequence(const ag::Var& windows) const {
  PPN_CHECK_EQ(windows->value().ndim(), 4);
  ag::Var h = block1_.Forward(windows);
  h = block2_.Forward(h);
  return block3_.Forward(h);
}

ag::Var CorrelationInfoNet::Forward(const ag::Var& windows) const {
  PPN_CHECK_EQ(windows->value().ndim(), 4);
  const int64_t batch = windows->value().dim(0);
  PPN_CHECK_EQ(windows->value().dim(1), num_assets_);
  PPN_CHECK_EQ(windows->value().dim(2), window_);
  PPN_CHECK(conv4_ != nullptr)
      << "Forward requires collapse_time; use ForwardSequence instead";
  ag::Var h = conv4_->Forward(ForwardSequence(windows), {.relu = true});
  return ag::Reshape(h, {batch, num_assets_, channels2_});  // [B, m, 1, C2].
}

}  // namespace ppn::core
