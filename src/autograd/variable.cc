#include "autograd/variable.h"

#include <unordered_set>

#include "common/check.h"
#include "tensor/ops.h"

namespace ppn::ag {

Node::Node(Tensor value, bool requires_grad)
    : value_(std::move(value)), requires_grad_(requires_grad) {}

void Node::AccumulateGrad(const Tensor& delta) {
  PPN_CHECK(SameShape(delta, value_))
      << "gradient shape " << ShapeToString(delta.shape())
      << " does not match value shape " << ShapeToString(value_.shape());
  if (!grad_allocated_) {
    grad_ = delta.Clone();
    grad_allocated_ = true;
    return;
  }
  float* pg = grad_.MutableData();
  const float* pd = delta.Data();
  for (int64_t i = 0; i < grad_.numel(); ++i) pg[i] += pd[i];
}

void Node::AccumulateGrad(Tensor&& delta) {
  // Adding, copying a shared buffer and the shape check stay in one place.
  if (grad_allocated_ || !delta.SoleOwner() || !SameShape(delta, value_)) {
    AccumulateGrad(static_cast<const Tensor&>(delta));
    return;
  }
  grad_ = std::move(delta);
  grad_allocated_ = true;
}

void Node::ZeroGrad() {
  if (grad_allocated_) {
    grad_.Fill(0.0f);
  } else {
    grad_ = Tensor(value_.shape());
    grad_allocated_ = true;
  }
}

namespace {

// Thread-local so a serving thread in InferenceMode never interferes with
// a training thread recording tape on the same process.
thread_local bool tls_grad_enabled = true;

}  // namespace

bool GradEnabled() { return tls_grad_enabled; }

InferenceMode::InferenceMode() : previous_(tls_grad_enabled) {
  tls_grad_enabled = false;
}

InferenceMode::~InferenceMode() { tls_grad_enabled = previous_; }

Var Constant(Tensor value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
}

Var Parameter(Tensor value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/true);
}

Var Detach(const Var& v) {
  PPN_CHECK(v != nullptr);
  return Constant(v->value());
}

namespace {

// Iterative post-order DFS producing a reverse topological order.
void TopologicalOrder(Node* root, std::vector<Node*>* order) {
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root);
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child != nullptr && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order->push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Var& root) {
  PPN_CHECK(root != nullptr);
  PPN_CHECK_EQ(root->numel(), 1) << "Backward requires a scalar root";
  std::vector<Node*> order;
  TopologicalOrder(root.get(), &order);
  root->AccumulateGrad(Tensor::Full(root->shape(), 1.0f));
  // `order` is post-order (children first); walk it backwards so each node's
  // gradient is complete before being propagated to its parents.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && node->requires_grad() && node->has_grad()) {
      node->backward_fn(node);
    }
  }
}

float ScalarValue(const Var& v) {
  PPN_CHECK(v != nullptr);
  PPN_CHECK_EQ(v->numel(), 1);
  return v->value()[0];
}

}  // namespace ppn::ag
