#ifndef PPN_PPN_POLICY_INFERENCE_H_
#define PPN_PPN_POLICY_INFERENCE_H_

#include <vector>

#include "ppn/policy_module.h"
#include "tensor/tensor.h"

/// \file
/// The shared grad-free inference path of a trained policy. Both consumers
/// of a trained `PolicyModule` — the backtester's `PolicyStrategy` adapter
/// and the serving engine's `serve::PortfolioServer` — route their forward
/// passes through this class, so a decision computed one user at a time is
/// the same code path (and the same bits) as a decision computed for a
/// thousand-user batch.

namespace ppn::core {

/// Batched, tape-free policy evaluation. Construction forces eval mode
/// (dropout off); every `DecideBatch` runs under `ag::InferenceMode`, so
/// the forward records no autograd tape and allocates no gradient buffers
/// regardless of how many users share the batch.
class PolicyInference {
 public:
  /// `policy` must outlive this object. Switches the module to eval mode.
  explicit PolicyInference(PolicyModule* policy);

  const PolicyConfig& config() const;

  /// Re-asserts eval mode (dropout off). Call before an evaluation run if
  /// the module may have been switched back to training in between.
  void EnsureEvalMode() const;

  /// One decision per batch row over shared windows. `windows` is
  /// [D, m, k, 4]: D normalized price windows (see
  /// `market::NormalizedWindow`). `window_of_row` has one entry per batch
  /// row, naming the window that row decides on. `prev_actions` is [B, m]
  /// holding each row's previous RISK weights (cash slot omitted, the PVM
  /// convention). The policy's `Features` run once per window and the
  /// decision head once per row. Returns [B, m+1] portfolio rows on the
  /// simplex with cash at column 0. Every policy kernel is row-independent
  /// with a fixed accumulation order, so each output row is bit-identical
  /// to a single-row call on its own window and previous action.
  Tensor DecideBatch(const Tensor& windows,
                     const std::vector<int64_t>& window_of_row,
                     const Tensor& prev_actions) const;

  /// One decision per batch row, row b deciding on window b: the
  /// identity-index case of the call above, with `windows` [B, m, k, 4].
  Tensor DecideBatch(const Tensor& windows, const Tensor& prev_actions) const;

 private:
  PolicyModule* policy_;
};

}  // namespace ppn::core

#endif  // PPN_PPN_POLICY_INFERENCE_H_
