#ifndef PPN_PPN_EIIE_H_
#define PPN_PPN_EIIE_H_

#include <memory>

#include "nn/conv.h"
#include "ppn/policy_module.h"

/// \file
/// EIIE baseline (Jiang, Xu & Liang 2017): the "ensemble of identical
/// independent evaluators" CNN the paper compares against. Per-asset
/// convolutions only (no cross-asset mixing) feeding the decision head
/// every `PolicyModule` shares: previous action appended before the final
/// 1×1 voting convolution, softmax with a cash bias.

namespace ppn::core {

/// EIIE topology: conv[1×3] → ReLU → conv[1×(k-2)] (collapses time) → ReLU
/// → concat prev action → 1×1 conv → cash bias row → softmax.
class EiieNetwork : public PolicyModule {
 public:
  EiieNetwork(const PolicyConfig& config, Rng* init_rng);

 private:
  /// conv[1×3] → ReLU → conv[1×(k-2)] → ReLU: [B, m, k, 4] -> [B, m, C2].
  ag::Var ExtractFeatures(const ag::Var& centered) const override;

  int64_t hidden_channels_;
  std::unique_ptr<nn::Conv2dLayer> conv1_;
  std::unique_ptr<nn::Conv2dLayer> conv2_;
};

}  // namespace ppn::core

#endif  // PPN_PPN_EIIE_H_
