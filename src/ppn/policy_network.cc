#include "ppn/policy_network.h"

#include "common/check.h"

namespace ppn::core {

PolicyNetwork::PolicyNetwork(const PolicyConfig& config, Rng* init_rng,
                             Rng* dropout_rng)
    : PolicyModule(config) {
  PPN_CHECK(config.variant != PolicyVariant::kEiie)
      << "use EiieNetwork for the EIIE topology";
  const bool correlational = UsesAssetCorrelation(config.variant);
  int64_t stream_features = 0;
  switch (config.variant) {
    case PolicyVariant::kPpn:
    case PolicyVariant::kPpnI:
      sequential_net_ = std::make_unique<SequentialInfoNet>(config, init_rng);
      correlation_net_ = std::make_unique<CorrelationInfoNet>(
          config, correlational, init_rng, dropout_rng);
      RegisterSubmodule("sequential", sequential_net_.get());
      RegisterSubmodule("correlation", correlation_net_.get());
      stream_features = sequential_net_->feature_size() +
                        correlation_net_->feature_size();
      break;
    case PolicyVariant::kPpnLstm:
      sequential_net_ = std::make_unique<SequentialInfoNet>(config, init_rng);
      RegisterSubmodule("sequential", sequential_net_.get());
      stream_features = sequential_net_->feature_size();
      break;
    case PolicyVariant::kPpnTcb:
    case PolicyVariant::kPpnTccb:
      correlation_net_ = std::make_unique<CorrelationInfoNet>(
          config, correlational, init_rng, dropout_rng);
      RegisterSubmodule("correlation", correlation_net_.get());
      stream_features = correlation_net_->feature_size();
      break;
    case PolicyVariant::kPpnTcbLstm:
    case PolicyVariant::kPpnTccbLstm:
      correlation_net_ = std::make_unique<CorrelationInfoNet>(
          config, correlational, init_rng, dropout_rng,
          /*collapse_time=*/false);
      cascade_lstm_ = std::make_unique<nn::Lstm>(
          correlation_net_->sequence_channels(), config.lstm_hidden, init_rng);
      RegisterSubmodule("correlation", correlation_net_.get());
      RegisterSubmodule("cascade_lstm", cascade_lstm_.get());
      stream_features = config.lstm_hidden;
      break;
    case PolicyVariant::kEiie:
      break;  // Unreachable (checked above).
  }
  BuildDecisionHead(stream_features, init_rng);
}

ag::Var PolicyNetwork::ExtractFeatures(const ag::Var& centered) const {
  switch (config().variant) {
    case PolicyVariant::kPpn:
    case PolicyVariant::kPpnI: {
      ag::Var sequential = sequential_net_->Forward(centered);
      ag::Var correlation = correlation_net_->Forward(centered);
      return ag::ConcatVars({sequential, correlation}, 2);
    }
    case PolicyVariant::kPpnLstm:
      return sequential_net_->Forward(centered);
    case PolicyVariant::kPpnTcb:
    case PolicyVariant::kPpnTccb:
      return correlation_net_->Forward(centered);
    case PolicyVariant::kPpnTcbLstm:
    case PolicyVariant::kPpnTccbLstm: {
      const int64_t batch = centered->value().dim(0);
      ag::Var sequence = correlation_net_->ForwardSequence(centered);
      ag::Var folded = ag::Reshape(
          sequence, {batch * config().num_assets, config().window,
                     correlation_net_->sequence_channels()});
      ag::Var last_hidden = cascade_lstm_->ForwardLastHidden(folded);
      return ag::Reshape(last_hidden,
                         {batch, config().num_assets, config().lstm_hidden});
    }
    case PolicyVariant::kEiie:
      break;
  }
  PPN_CHECK(false) << "unhandled variant";
  return nullptr;
}

}  // namespace ppn::core
