#ifndef PPN_TENSOR_TENSOR_H_
#define PPN_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

/// \file
/// Dense row-major float32 tensor. This is the storage type underneath the
/// autograd engine and the neural-network layers; it carries no gradient
/// information itself. Buffers come from the thread-local size-class pool
/// in `tensor/pool.h` (64-byte aligned, recycled across allocations).

namespace ppn {

/// A dense N-dimensional float32 array with row-major layout.
///
/// Copying a `Tensor` is shallow: copies share the underlying buffer (like
/// `std::shared_ptr`). Operations in `tensor/ops.h` always allocate fresh
/// outputs, so sharing is only observable through explicit `MutableData()`
/// writes. Use `Clone()` for a deep copy.
class Tensor {
 public:
  /// An empty 0-element tensor with shape {0}.
  Tensor();

  /// Allocates a zero-initialized tensor of the given shape. All dimensions
  /// must be non-negative.
  explicit Tensor(std::vector<int64_t> shape);

  /// Allocates WITHOUT initializing: recycled pool buffers keep their
  /// previous contents. Only legal for callers that overwrite every
  /// element before the tensor can be read (elementwise outputs, matmul
  /// outputs, copies, …). Ops that *accumulate* into their output, or
  /// write only part of it (gradient buffers, a conv's zero-padded input
  /// copy), must use the zeroing constructor instead.
  static Tensor Uninitialized(std::vector<int64_t> shape);

  /// Allocates and fills from `values`; `values.size()` must equal the
  /// number of elements implied by `shape`.
  Tensor(std::vector<int64_t> shape, std::vector<float> values);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  /// Factory: tensor filled with `value`.
  static Tensor Full(std::vector<int64_t> shape, float value);

  /// Number of dimensions.
  int ndim() const { return static_cast<int>(shape_.size()); }

  /// Shape vector.
  const std::vector<int64_t>& shape() const { return shape_; }

  /// Size of dimension `axis` (supports negative axes, Python style).
  int64_t dim(int axis) const;

  /// Total element count.
  int64_t numel() const { return numel_; }

  /// Read-only flat data pointer (null iff numel() == 0).
  const float* Data() const { return data_.get(); }

  /// Mutable flat data pointer (writes are visible to all shallow copies).
  float* MutableData() { return data_.get(); }

  /// True when no other tensor (shallow copy or `Reshaped` view) shares
  /// this one's buffer, so a write through it is seen nowhere else. An
  /// empty tensor has no buffer and counts as the sole owner.
  bool SoleOwner() const { return data_.use_count() <= 1; }

  /// Element access by flat index.
  float operator[](int64_t flat_index) const;

  /// Element access by multi-index (size must equal ndim()).
  float At(std::initializer_list<int64_t> indices) const;

  /// Mutable element access by multi-index.
  void Set(std::initializer_list<int64_t> indices, float value);

  /// Flat offset of a multi-index.
  int64_t Offset(std::initializer_list<int64_t> indices) const;

  /// Deep copy.
  Tensor Clone() const;

  /// Returns a tensor with the same data buffer but a new shape. The new
  /// shape must have the same element count. This is a view: data is shared.
  Tensor Reshaped(std::vector<int64_t> new_shape) const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// True if shapes are equal and all elements differ by at most `atol`.
  bool AllClose(const Tensor& other, float atol = 1e-5f) const;

  /// Debug string: shape plus (for small tensors) the values.
  std::string ToString() const;

 private:
  struct UninitTag {};
  Tensor(UninitTag, std::vector<int64_t> shape);

  std::vector<int64_t> shape_;
  int64_t numel_ = 0;
  /// Pooled buffer; the deleter returns it to `pool::Release`. Null iff
  /// numel_ == 0.
  std::shared_ptr<float> data_;
};

/// Computes the element count of a shape; checks dims are non-negative.
int64_t ShapeNumel(const std::vector<int64_t>& shape);

/// True iff the two shapes are identical.
bool SameShape(const Tensor& a, const Tensor& b);

/// Renders a shape as "[a, b, c]".
std::string ShapeToString(const std::vector<int64_t>& shape);

}  // namespace ppn

#endif  // PPN_TENSOR_TENSOR_H_
