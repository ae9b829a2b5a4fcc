#ifndef PPN_PPN_DDPG_H_
#define PPN_PPN_DDPG_H_

#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "market/dataset.h"
#include "nn/conv.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "obs/run_log.h"
#include "ppn/policy_module.h"
#include "ppn/reward.h"

/// \file
/// PPN-AC (paper Section 7.2 / Table 9): the actor–critic ablation. The
/// actor is a PPN; the critic approximates Q(s, a_{t-1}, a) with a small
/// convolutional state encoder and a dueling-style split Q = V(s) + A(s,a).
/// Trained with DDPG (Lillicrap et al. 2016): replay buffer, target
/// networks with Polyak averaging, and exploration by Dirichlet mixing.
///
/// The per-period reward is the rebalanced log-return log(aᵀx·ω); the
/// batch-statistic terms of Eq. 1 (variance, turnover) have no per-period
/// analogue, which is part of why the paper finds AC inferior here.

namespace ppn::core {

/// Critic network: state encoder (per-asset convs) + dueling heads.
class CriticNetwork : public nn::Module {
 public:
  CriticNetwork(const PolicyConfig& config, Rng* init_rng);

  /// windows [B, m, k, 4], prev_actions [B, m], actions [B, m+1]
  /// -> Q values [B, 1].
  ag::Var Forward(const ag::Var& windows, const ag::Var& prev_actions,
                  const ag::Var& actions) const;

 private:
  PolicyConfig config_;
  int64_t state_features_;
  std::unique_ptr<nn::Conv2dLayer> conv1_;
  std::unique_ptr<nn::Conv2dLayer> conv2_;
  std::unique_ptr<nn::Linear> value_hidden_;
  std::unique_ptr<nn::Linear> value_head_;
  std::unique_ptr<nn::Linear> advantage_hidden_;
  std::unique_ptr<nn::Linear> advantage_head_;
};

/// DDPG hyperparameters.
struct DdpgConfig {
  int64_t steps = 1200;        ///< Environment/learning steps.
  int64_t batch_size = 32;     ///< Replay minibatch.
  int64_t warmup = 64;         ///< Steps before learning starts.
  int64_t buffer_capacity = 4096;
  float actor_lr = 1e-3f;
  float critic_lr = 1e-3f;
  float tau = 0.01f;           ///< Target soft-update rate.
  float discount = 0.95f;
  double explore_start = 0.4;  ///< Initial Dirichlet mixing weight.
  double explore_end = 0.02;
  double cost_rate = 0.0025;   ///< ψ for the per-period reward.
  uint64_t seed = 3;

  /// Checks steps/batch_size > 0, warmup ≥ 0, buffer_capacity ≥
  /// batch_size, both learning rates > 0, tau ∈ (0, 1], discount ∈ [0, 1],
  /// explore weights in [0, 1], and ψ ∈ [0, 1). Aborts on violation;
  /// called at trainer construction.
  void Validate() const;
};

/// Trains a PPN actor with DDPG on a dataset's training range.
class DdpgTrainer {
 public:
  /// `actor` and `dataset` must outlive the trainer; `actor` must match the
  /// dataset's asset count.
  DdpgTrainer(PolicyModule* actor, const market::MarketDataset& dataset,
              DdpgConfig config);
  ~DdpgTrainer();

  /// Runs one environment step (plus a learning step once the replay
  /// buffer has warmed up); returns the per-period reward.
  double TrainStep();

  /// Runs steps until `steps_done() == config.steps` (the remainder after
  /// `LoadState`). Returns the mean reward of the last 10% of environment
  /// steps.
  double Train();

  /// Environment steps taken so far (survives checkpoint/restore).
  int64_t steps_done() const { return steps_done_; }

  /// Mean reward over the completed tail-window steps (0 before any).
  double tail_mean() const {
    return tail_count_ > 0 ? tail_sum_ / tail_count_ : 0.0;
  }

  /// Attaches a per-step telemetry sink (nullptr detaches). NOT owned;
  /// must outlive the trainer or be detached first. The per-period reward
  /// is logged as both total and log-return (Eq. 1's batch-statistic
  /// variance/turnover terms have no per-period analogue here and stay
  /// 0); grad_norm is the actor's pre-clip norm from the latest learn
  /// step. Purely observational — never changes training results.
  void AttachRunLog(obs::RunLog* run_log) { run_log_ = run_log; }

  /// Serializes the complete DDPG state — actor/critic and both target
  /// networks, both Adam optimizers, the RNG streams (exploration, the
  /// internally owned target-net dropout stream, and the externally owned
  /// actor dropout stream, if any), the replay buffer, and the environment
  /// cursor — so a restored trainer continues bit-identically.
  /// `actor_dropout_rng` is the stream the actor was built with (consumed
  /// by its dropout layers during learn steps); nullptr when the actor has
  /// no dropout.
  void SaveState(ckpt::CheckpointWriter* writer,
                 const Rng* actor_dropout_rng) const;

  /// Restores state written by `SaveState`; false with a contextual
  /// `*error` on any shape or config mismatch.
  bool LoadState(ckpt::CheckpointReader* reader, Rng* actor_dropout_rng,
                 std::string* error);

 private:
  struct Transition {
    int64_t period;            ///< Decision period t.
    std::vector<double> prev;  ///< a_{t-1} (m+1).
    std::vector<double> action;
    double reward;
    bool has_next;             ///< Next period still inside the range.
  };

  Tensor WindowsFor(const std::vector<int64_t>& periods) const;
  Tensor PrevRiskFor(const std::vector<const Transition*>& batch) const;
  void LearnStep();

  PolicyModule* actor_;
  DdpgConfig config_;
  int64_t num_assets_;
  int64_t window_;
  int64_t first_period_;
  int64_t last_period_;
  Rng rng_;
  Rng dropout_rng_;

  std::unique_ptr<CriticNetwork> critic_;
  std::unique_ptr<PolicyModule> target_actor_;
  std::unique_ptr<CriticNetwork> target_critic_;
  std::unique_ptr<nn::Adam> actor_optimizer_;
  std::unique_ptr<nn::Adam> critic_optimizer_;

  const market::OhlcPanel* panel_;  ///< The environment's price panel.
  std::vector<Tensor> windows_;     ///< Indexed by t - first_period_.
  std::vector<Transition> buffer_;
  int64_t buffer_next_ = 0;

  /// Environment cursor and step counters — members (not Train() locals)
  /// so they are part of the checkpointed state.
  int64_t env_period_;
  std::vector<double> previous_action_;
  int64_t steps_done_ = 0;
  double tail_sum_ = 0.0;
  int64_t tail_count_ = 0;

  /// Telemetry only (not checkpointed): the actor's pre-clip gradient
  /// norm from the most recent LearnStep, and the attached run log.
  double last_actor_grad_norm_ = 0.0;
  obs::RunLog* run_log_ = nullptr;
};

}  // namespace ppn::core

#endif  // PPN_PPN_DDPG_H_
