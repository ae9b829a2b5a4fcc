#ifndef PPN_PPN_TRAINER_H_
#define PPN_PPN_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "market/dataset.h"
#include "nn/optimizer.h"
#include "obs/run_log.h"
#include "ppn/policy_module.h"
#include "ppn/pvm.h"
#include "ppn/reward.h"

/// \file
/// Direct policy gradient training (paper Section 5.1 + Remark 3): the
/// reward of portfolio selection is immediate and differentiable in the
/// actions, so the policy is trained by gradient ascent on the
/// cost-sensitive reward over randomly sampled contiguous batches, with a
/// portfolio vector memory supplying the recursive a_{t-1} inputs.

namespace ppn::core {

/// Trainer hyperparameters (defaults follow the paper where stated).
struct TrainerConfig {
  int64_t batch_size = 32;     ///< T: periods per sampled batch.
  int64_t steps = 800;         ///< Gradient steps.
  float learning_rate = 1e-3f; ///< Adam learning rate (paper: 0.001).
  float weight_decay = 0.0f;   ///< Decoupled L2 decay (AdamW style).
  double grad_clip = 5.0;      ///< Global-norm gradient clip.
  /// Training-time return-perturbation adversary (scenario-engine
  /// stretch): when > 0, every batch entry's RISK relatives are multiplied
  /// by exp(ε·z), z ~ N(0,1) from the trainer's RNG, so the policy
  /// optimizes against perturbed futures instead of the recorded ones
  /// (cash stays exactly 1). 0 (the default) draws nothing — the RNG
  /// stream, and therefore every existing result and checkpoint replay,
  /// is bit-identical to builds that predate the knob.
  double adversarial_epsilon = 0.0;
  RewardConfig reward;
  uint64_t seed = 1;

  /// Checks batch_size/steps > 0, learning_rate > 0, weight_decay ≥ 0,
  /// grad_clip > 0, adversarial_epsilon ∈ [0, 1),
  /// and `reward` (see RewardConfig::Validate). Aborts on violation;
  /// called at trainer construction.
  void Validate() const;
};

/// Trains a policy on a dataset's training range by direct policy gradient.
class PolicyGradientTrainer {
 public:
  /// `policy` must outlive the trainer. Windows and relatives for the whole
  /// training range are precomputed here.
  PolicyGradientTrainer(PolicyModule* policy,
                        const market::MarketDataset& dataset,
                        TrainerConfig config);

  /// Runs one gradient step on a sampled batch; returns the reward value.
  /// A step whose loss or pre-clip gradient norm is not finite updates
  /// nothing (see `nonfinite_steps()`).
  double TrainStep();

  /// Runs steps until `steps_done() == config.steps` (all of them on a
  /// fresh trainer, the remainder after `LoadState`); returns the mean
  /// reward of the last 10% of steps (a convergence indicator).
  double Train();

  /// Gradient steps taken so far (survives checkpoint/restore).
  int64_t steps_done() const { return steps_done_; }

  /// Steps of this trainer object whose loss or pre-clip gradient norm was
  /// not finite. Such a step counts in `steps_done()` but updates no weight,
  /// PVM row or tail mean (also counted as `trainer.nonfinite_steps`). Not
  /// checkpointed.
  int64_t nonfinite_steps() const { return nonfinite_steps_; }

  /// Mean reward over the completed tail-window steps (0 before any).
  double tail_mean() const {
    return tail_count_ > 0 ? tail_sum_ / tail_count_ : 0.0;
  }

  /// Serializes the complete training state — policy parameters, Adam
  /// moments, RNG streams, PVM contents, and step counters — into sections
  /// of `writer`. `dropout_rng` is the externally owned dropout stream
  /// (nullptr when the policy has no dropout); it is captured alongside so
  /// a resumed run draws the identical noise sequence.
  void SaveState(ckpt::CheckpointWriter* writer, const Rng* dropout_rng) const;

  /// Restores state written by `SaveState` into this trainer (which must
  /// have been constructed with the same policy shape, dataset, and
  /// config). Returns false with a contextual `*error` on any mismatch.
  bool LoadState(ckpt::CheckpointReader* reader, Rng* dropout_rng,
                 std::string* error);

  /// Attaches a per-step telemetry sink (nullptr detaches). NOT owned;
  /// must outlive the trainer or be detached first. When attached, every
  /// TrainStep appends one RunLogRecord — reward decomposition, pre-clip
  /// gradient norm, PVM staleness, solver iterations, wall time. Purely
  /// observational: attaching a log never changes training results.
  void AttachRunLog(obs::RunLog* run_log) { run_log_ = run_log; }

  /// Portfolio vector memory (exposed for tests).
  const PortfolioVectorMemory& pvm() const { return pvm_; }

  /// First decision period of the training range (k).
  int64_t first_period() const { return first_period_; }

  /// One past the last training decision period.
  int64_t last_period() const { return last_period_; }

 private:
  /// Builds the [T, m, k, 4] window tensor for decisions t0 .. t0+T-1.
  Tensor BatchWindows(int64_t t0) const;

  PolicyModule* policy_;
  TrainerConfig config_;
  int64_t num_assets_;
  int64_t window_;
  int64_t first_period_;
  int64_t last_period_;
  PortfolioVectorMemory pvm_;
  /// pvm_write_step_[t] is the value of steps_done_ when period t's PVM
  /// row was last rewritten (-1 = still the uniform initialization).
  /// Telemetry only — feeds the run log's pvm_staleness field; not part
  /// of the checkpointed state (staleness restarts after a resume).
  std::vector<int64_t> pvm_write_step_;
  obs::RunLog* run_log_ = nullptr;
  Rng rng_;
  std::unique_ptr<nn::Adam> optimizer_;
  /// Steps taken so far; indexes the obs reward-breakdown trace ring.
  int64_t steps_done_ = 0;
  int64_t nonfinite_steps_ = 0;
  /// Running sum/count of rewards inside the final-10% tail window; kept as
  /// members (not Train() locals) so the convergence indicator survives a
  /// checkpoint/restore cycle.
  double tail_sum_ = 0.0;
  int64_t tail_count_ = 0;
  /// windows_[t - first_period_] is the normalized window for a decision at
  /// period t (data through t-1).
  std::vector<Tensor> windows_;
  /// relatives_[t] is x_t with cash (defined for t >= 1).
  std::vector<std::vector<double>> relatives_;
};

}  // namespace ppn::core

#endif  // PPN_PPN_TRAINER_H_
