#ifndef PPN_PPN_FEATURE_NETS_H_
#define PPN_PPN_FEATURE_NETS_H_

#include <memory>
#include <vector>

#include "market/dataset.h"
#include "nn/conv.h"
#include "nn/lstm.h"
#include "ppn/config.h"

/// \file
/// The two feature-extraction streams of the portfolio policy network
/// (paper Sections 4.2–4.3 and Table 2):
///
///  * `SequentialInfoNet` — one shared-weight LSTM over each asset's
///    normalized price window, keeping the final hidden state;
///  * `CorrelationInfoNet` — a stack of temporal (correlational)
///    convolution blocks: dilated causal convolutions along time plus,
///    in TCCB mode, an m×1 correlational convolution across assets.
///
/// Throughout, policy inputs are laid out [batch, assets(m), time(k), 4]
/// and conv feature maps keep that channels-last layout,
/// [batch, assets, time, channels], from the windows to Conv4.

namespace ppn::core {

/// Sequential information net: per-asset LSTM, shared weights.
class SequentialInfoNet : public nn::Module {
 public:
  SequentialInfoNet(const PolicyConfig& config, Rng* rng);

  /// [B, m, k, 4] -> [B, m, hidden] (final hidden state per asset).
  ag::Var Forward(const ag::Var& windows) const;

  int64_t feature_size() const { return hidden_; }

 private:
  int64_t num_assets_;
  int64_t window_;
  int64_t hidden_;
  nn::Lstm lstm_;
};

/// One temporal (correlational) convolution block: two dilated causal
/// convolutions along time, then (TCCB only) one m×1 correlational
/// convolution across assets. Each conv runs dropout + ReLU as its output
/// pass (one tape node per conv).
class TemporalConvBlock : public nn::Module {
 public:
  TemporalConvBlock(int64_t in_channels, int64_t out_channels,
                    int64_t dilation, int64_t num_assets, bool correlational,
                    float dropout, Rng* init_rng, Rng* dropout_rng);

  /// [B, m, k, C_in] -> [B, m, k, C_out].
  ag::Var Forward(const ag::Var& input) const;

  bool correlational() const { return correlational_; }

 private:
  bool correlational_;
  float dropout_;
  Rng* dropout_rng_;  // Not owned.
  nn::Conv2dLayer dconv1_;
  nn::Conv2dLayer dconv2_;
  std::unique_ptr<nn::Conv2dLayer> cconv_;
};

/// Correlation information net: three blocks with dilations 1, 2, 4 and a
/// final [1×k] VALID convolution collapsing the time axis (Conv4). With
/// `correlational == false` the blocks degenerate to TCB (no cross-asset
/// mixing) — the PPN-I / PPN-TCB variants.
class CorrelationInfoNet : public nn::Module {
 public:
  /// `collapse_time == false` omits the Conv4 layer entirely — used by the
  /// cascaded variants, which consume `ForwardSequence` and would otherwise
  /// carry dead parameters.
  CorrelationInfoNet(const PolicyConfig& config, bool correlational,
                     Rng* init_rng, Rng* dropout_rng,
                     bool collapse_time = true);

  /// [B, m, k, 4] -> [B, m, feature_size()] (time collapsed by Conv4).
  /// Requires `collapse_time == true`.
  ag::Var Forward(const ag::Var& windows) const;

  /// [B, m, k, 4] -> [B, m, k, C] — block features with the time axis kept
  /// (used by the cascaded TCB-LSTM / TCCB-LSTM variants).
  ag::Var ForwardSequence(const ag::Var& windows) const;

  int64_t feature_size() const { return channels2_; }
  int64_t sequence_channels() const { return channels2_; }

 private:
  int64_t num_assets_;
  int64_t window_;
  int64_t channels2_;
  TemporalConvBlock block1_;
  TemporalConvBlock block2_;
  TemporalConvBlock block3_;
  std::unique_ptr<nn::Conv2dLayer> conv4_;  // Null if !collapse_time.
};

}  // namespace ppn::core

#endif  // PPN_PPN_FEATURE_NETS_H_
