#ifndef PPN_PPN_POLICY_NETWORK_H_
#define PPN_PPN_POLICY_NETWORK_H_

#include <memory>

#include "ppn/feature_nets.h"
#include "ppn/policy_module.h"

/// \file
/// The portfolio policy network (paper Section 4): one or two feature
/// streams feeding the decision-making module, the decision head every
/// `PolicyModule` shares (see policy_module.h).

namespace ppn::core {

/// PPN and its six Table-4 variants, selected by `config.variant`.
class PolicyNetwork : public PolicyModule {
 public:
  PolicyNetwork(const PolicyConfig& config, Rng* init_rng, Rng* dropout_rng);

 private:
  /// Per-asset features [B, m, F] of the active variant's streams.
  ag::Var ExtractFeatures(const ag::Var& centered) const override;

  std::unique_ptr<SequentialInfoNet> sequential_net_;
  std::unique_ptr<CorrelationInfoNet> correlation_net_;
  /// LSTM applied on top of conv features (cascaded variants only).
  std::unique_ptr<nn::Lstm> cascade_lstm_;
};

}  // namespace ppn::core

#endif  // PPN_PPN_POLICY_NETWORK_H_
