#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/check.h"
#include "tensor/pool.h"

namespace ppn {

namespace {

std::shared_ptr<float> AcquireShared(int64_t numel) {
  if (numel == 0) return nullptr;
  float* raw = pool::Acquire(numel);
  return std::shared_ptr<float>(raw,
                                [numel](float* p) { pool::Release(p, numel); });
}

}  // namespace

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  int64_t numel = 1;
  for (const int64_t d : shape) {
    PPN_CHECK_GE(d, 0) << "negative dimension in shape";
    numel *= d;
  }
  return numel;
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

std::string ShapeToString(const std::vector<int64_t>& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor() : Tensor(std::vector<int64_t>{0}) {}

Tensor::Tensor(UninitTag, std::vector<int64_t> shape)
    : shape_(std::move(shape)),
      numel_(ShapeNumel(shape_)),
      data_(AcquireShared(numel_)) {}

Tensor::Tensor(std::vector<int64_t> shape) : Tensor(UninitTag{}, std::move(shape)) {
  if (numel_ > 0) {
    std::memset(data_.get(), 0, static_cast<size_t>(numel_) * sizeof(float));
  }
}

Tensor::Tensor(std::vector<int64_t> shape, std::vector<float> values)
    : Tensor(UninitTag{}, std::move(shape)) {
  PPN_CHECK_EQ(numel_, static_cast<int64_t>(values.size()))
      << "value count does not match shape " << ShapeToString(shape_);
  if (numel_ > 0) {
    std::memcpy(data_.get(), values.data(),
                static_cast<size_t>(numel_) * sizeof(float));
  }
}

Tensor Tensor::Uninitialized(std::vector<int64_t> shape) {
  return Tensor(UninitTag{}, std::move(shape));
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t = Uninitialized(std::move(shape));
  t.Fill(value);
  return t;
}

int64_t Tensor::dim(int axis) const {
  const int n = ndim();
  if (axis < 0) axis += n;
  PPN_CHECK(axis >= 0 && axis < n)
      << "axis " << axis << " out of range for shape " << ShapeToString(shape_);
  return shape_[axis];
}

float Tensor::operator[](int64_t flat_index) const {
  PPN_DCHECK(flat_index >= 0 && flat_index < numel_);
  return data_.get()[flat_index];
}

int64_t Tensor::Offset(std::initializer_list<int64_t> indices) const {
  PPN_CHECK_EQ(static_cast<int>(indices.size()), ndim());
  int64_t offset = 0;
  int axis = 0;
  for (const int64_t index : indices) {
    PPN_DCHECK(index >= 0 && index < shape_[axis]);
    offset = offset * shape_[axis] + index;
    ++axis;
  }
  return offset;
}

float Tensor::At(std::initializer_list<int64_t> indices) const {
  return data_.get()[Offset(indices)];
}

void Tensor::Set(std::initializer_list<int64_t> indices, float value) {
  data_.get()[Offset(indices)] = value;
}

Tensor Tensor::Clone() const {
  Tensor out = Uninitialized(shape_);
  if (numel_ > 0) {
    std::memcpy(out.data_.get(), data_.get(),
                static_cast<size_t>(numel_) * sizeof(float));
  }
  return out;
}

Tensor Tensor::Reshaped(std::vector<int64_t> new_shape) const {
  PPN_CHECK_EQ(ShapeNumel(new_shape), numel_)
      << "cannot reshape " << ShapeToString(shape_) << " to "
      << ShapeToString(new_shape);
  Tensor view = *this;
  view.shape_ = std::move(new_shape);
  return view;
}

void Tensor::Fill(float value) {
  float* p = data_.get();
  for (int64_t i = 0; i < numel_; ++i) p[i] = value;
}

bool Tensor::AllClose(const Tensor& other, float atol) const {
  if (shape_ != other.shape_) return false;
  const float* pa = data_.get();
  const float* pb = other.data_.get();
  for (int64_t i = 0; i < numel_; ++i) {
    const float delta = pa[i] - pb[i];
    if (std::fabs(delta) > atol || std::isnan(delta)) return false;
  }
  return true;
}

std::string Tensor::ToString() const {
  std::ostringstream out;
  out << "Tensor" << ShapeToString(shape_);
  if (numel_ <= 32) {
    out << " {";
    for (int64_t i = 0; i < numel_; ++i) {
      if (i > 0) out << ", ";
      out << data_.get()[i];
    }
    out << "}";
  }
  return out.str();
}

}  // namespace ppn
