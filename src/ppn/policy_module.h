#ifndef PPN_PPN_POLICY_MODULE_H_
#define PPN_PPN_POLICY_MODULE_H_

#include <memory>

#include "common/random.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "ppn/config.h"

/// \file
/// The interface shared by all trainable portfolio policies (PPN variants
/// and the EIIE baseline): map a batch of normalized price windows plus the
/// previous portfolio to a batch of new portfolios.
///
/// Every policy is market features + one shared decision head. As in the
/// paper's recursive mechanism (and EIIE), a_{t-1} enters only at the
/// decision layer, so the features of a window do not depend on the
/// previous action: the serving engine computes them once per period and
/// reuses them for every user deciding on that period.

namespace ppn::core {

/// A differentiable portfolio policy π(s_t, a_{t-1}) =
/// Decide(Features(s_t), a_{t-1}).
class PolicyModule : public nn::Module {
 public:
  /// Per-asset market features. Centers and rescales the input (see
  /// `PolicyConfig::input_scale`), then runs the variant's streams.
  /// \param windows [B, m, k, 4] normalized price windows.
  /// \return [B, m, F] features; row b depends on window b alone.
  ag::Var Features(const ag::Var& windows) const;

  /// The decision head every variant shares: appends a_{t-1} as one more
  /// feature column, prepends the fixed cash-bias row, votes with the
  /// bias-free 1×1 `decision` convolution (a Linear over feature rows) and
  /// takes a softmax over the m+1 assets.
  /// \param features [B, m, F] as returned by `Features`.
  /// \param prev_actions [B, m] risk-asset slice of a_{t-1}.
  /// \return [B, m+1] portfolios on the simplex (cash at column 0).
  ag::Var Decide(const ag::Var& features, const ag::Var& prev_actions) const;

  /// Forward pass: `Decide(Features(windows), prev_actions)`.
  ag::Var Forward(const ag::Var& windows, const ag::Var& prev_actions);

  /// The configuration the policy was built with.
  const PolicyConfig& config() const { return config_; }

 protected:
  explicit PolicyModule(const PolicyConfig& config) : config_(config) {}

  /// Builds and registers the head's `decision` Linear over `feature_size`
  /// stream features plus the previous-action column. Subclasses call it
  /// last, after their feature layers, so parameter names, registration
  /// order and init-RNG draws stay those of the saved weights.
  void BuildDecisionHead(int64_t feature_size, Rng* init_rng);

 private:
  /// The variant's streams on centered windows: [B, m, k, 4] -> [B, m, F].
  virtual ag::Var ExtractFeatures(const ag::Var& centered) const = 0;

  PolicyConfig config_;
  /// The decision 1×1 convolution. Bias-free: a shared scalar bias on
  /// every logit cancels in the softmax.
  std::unique_ptr<nn::Linear> decision_;
};

/// Builds the policy for `config.variant` (a PPN variant or EIIE).
/// `init_rng` seeds the weights; `dropout_rng` must outlive the policy and
/// drives dropout masks during training.
std::unique_ptr<PolicyModule> MakePolicy(const PolicyConfig& config,
                                         Rng* init_rng, Rng* dropout_rng);

}  // namespace ppn::core

#endif  // PPN_PPN_POLICY_MODULE_H_
