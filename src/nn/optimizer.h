#ifndef PPN_NN_OPTIMIZER_H_
#define PPN_NN_OPTIMIZER_H_

#include <string>
#include <vector>

#include "autograd/variable.h"
#include "ckpt/binio.h"

/// \file
/// The optimizer. `Adam` holds handles to the parameters it updates;
/// `Step()` applies one update from the gradients currently accumulated in
/// those parameters and does NOT clear them (call `Module::ZeroGrad`
/// before each backward pass).

namespace ppn::nn {

/// Adam (Kingma & Ba 2015) with bias correction — the optimizer the paper
/// uses (learning rate 0.001). `weight_decay` applies decoupled L2 decay
/// (AdamW; 0 disables it).
class Adam {
 public:
  Adam(std::vector<ag::Var> parameters, float learning_rate,
       float beta1 = 0.9f, float beta2 = 0.999f, float epsilon = 1e-8f,
       float weight_decay = 0.0f);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update step from the accumulated gradients.
  void Step();

  /// Parameters managed by this optimizer.
  const std::vector<ag::Var>& parameters() const { return parameters_; }

  /// Rescales gradients so the global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  double ClipGradNorm(double max_norm);

  /// Steps taken so far.
  int64_t step_count() const { return step_count_; }

  /// Serializes the optimizer state (step count + both moment vectors)
  /// exactly; together with `Module::SaveState` this makes a resumed run
  /// bit-identical to an uninterrupted one.
  void SaveState(ckpt::BinWriter* writer) const;

  /// Restores state written by `SaveState`. The optimizer must manage an
  /// identically shaped parameter list; false with *error otherwise.
  bool LoadState(ckpt::BinReader* reader, std::string* error);

 private:
  std::vector<ag::Var> parameters_;
  float learning_rate_;
  float beta1_;
  float beta2_;
  float epsilon_;
  float weight_decay_;
  int64_t step_count_ = 0;
  std::vector<std::vector<float>> first_moment_;
  std::vector<std::vector<float>> second_moment_;
};

}  // namespace ppn::nn

#endif  // PPN_NN_OPTIMIZER_H_
