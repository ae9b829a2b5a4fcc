#ifndef PPN_AUTOGRAD_VARIABLE_H_
#define PPN_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

/// \file
/// Dynamic-graph reverse-mode automatic differentiation. Each differentiable
/// operation in `autograd/ops.h` allocates a `Node` holding its output value,
/// links to its parent nodes, and registers a closure that propagates the
/// output gradient to the parents. `Backward()` runs the closures in reverse
/// topological order.

namespace ppn::ag {

class Node;

/// Handle to a graph node. Graphs are kept alive by these shared handles;
/// when the last handle to a subgraph result is dropped, the whole
/// intermediate graph is freed.
using Var = std::shared_ptr<Node>;

/// One vertex of the autodiff tape.
class Node {
 public:
  /// Builds a node holding `value`. Prefer the `Constant` / `Parameter` /
  /// op factory functions over calling this directly.
  Node(Tensor value, bool requires_grad);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Forward value.
  const Tensor& value() const { return value_; }

  /// Mutable forward value (used by optimizers updating parameters
  /// in place).
  Tensor* mutable_value() { return &value_; }

  /// Whether gradients flow into this node.
  bool requires_grad() const { return requires_grad_; }

  /// Accumulated gradient; zero tensor until `Backward` reaches this node.
  /// Only meaningful if `requires_grad()`.
  const Tensor& grad() const { return grad_; }

  /// Adds `delta` into the gradient accumulator (allocates on first use).
  void AccumulateGrad(const Tensor& delta);

  /// Same, but the first accumulation takes over `delta`'s buffer instead
  /// of copying it when `delta` is its sole owner (a fresh op output). A
  /// delta that shares its buffer, such as the `Reshaped` view of a child's
  /// gradient that Reshape's backward passes, is still copied: later
  /// accumulations and the optimizers' in-place gradient clipping write
  /// into this buffer, and must not reach the child's gradient.
  void AccumulateGrad(Tensor&& delta);

  /// True once any gradient has been accumulated (or ZeroGrad called).
  bool has_grad() const { return grad_allocated_; }

  /// Clears the gradient accumulator to zero.
  void ZeroGrad();

  /// Shape convenience forwarding.
  const std::vector<int64_t>& shape() const { return value_.shape(); }

  /// Element count convenience forwarding.
  int64_t numel() const { return value_.numel(); }

  // --- internal wiring used by op factories ---------------------------

  /// Parents in the dataflow graph (op inputs).
  std::vector<Var> parents;

  /// Propagates this node's `grad()` into the parents' accumulators.
  /// Null for leaves.
  std::function<void(Node*)> backward_fn;

 private:
  Tensor value_;
  Tensor grad_;
  bool grad_allocated_ = false;
  bool requires_grad_;
};

/// True when op factories record tape edges on this thread (the default).
/// Cleared inside an `InferenceMode` scope.
bool GradEnabled();

/// RAII guard disabling tape recording on the current thread: every op
/// built inside the scope produces a plain constant node — no parent
/// links, no backward closure, no gradient buffers — even when its inputs
/// are trainable parameters. Forward VALUES are bit-identical to the
/// recording mode; only the bookkeeping disappears, so intermediates free
/// eagerly and serving forwards run tape-free (cf. PyTorch's
/// `AutoGradMode(false)`). Nesting and re-entry are safe: each guard
/// restores the mode it found. Calling `Backward` on a graph built under
/// the guard is a no-op for gradients: the root is a constant with no
/// parent links, so nothing propagates and no parameter receives a grad.
class InferenceMode {
 public:
  InferenceMode();
  ~InferenceMode();

  InferenceMode(const InferenceMode&) = delete;
  InferenceMode& operator=(const InferenceMode&) = delete;

 private:
  bool previous_;
};

/// Creates a leaf that does not require gradients (inputs, stop-gradients).
Var Constant(Tensor value);

/// Creates a trainable leaf (network parameter).
Var Parameter(Tensor value);

/// Returns a gradient-stopped copy of `v` (shares the value buffer).
Var Detach(const Var& v);

/// Runs reverse-mode accumulation from `root`, which must be a scalar
/// (numel() == 1); the seed gradient is 1. Gradients accumulate into every
/// reachable node with `requires_grad()`. Intermediate gradients are kept
/// (useful for testing); call `ZeroGrad` on leaves between steps.
void Backward(const Var& root);

/// Value of a scalar node. Checks numel() == 1.
float ScalarValue(const Var& v);

}  // namespace ppn::ag

#endif  // PPN_AUTOGRAD_VARIABLE_H_
