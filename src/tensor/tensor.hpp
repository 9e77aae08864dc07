// Dense host tensor: shape + dtype + contiguous row-major storage.
//
// This is the functional-simulation data container. It deliberately has
// value semantics (deep copy) — graphs hold constants by value, and the
// executor moves activations through L2 buffers by copying, mirroring the
// explicit data movement of the real platform.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "support/common.hpp"
#include "support/rng.hpp"
#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"

namespace htvm {

class Tensor {
 public:
  Tensor() = default;
  Tensor(Shape shape, DType dtype);

  static Tensor Zeros(Shape shape, DType dtype);

  // Deterministic pseudo-random fill appropriate for the dtype: full-range
  // int8, {-1,0,1} for ternary, small ints for int32 (bias-like).
  static Tensor Random(Shape shape, DType dtype, Rng& rng);

  // Builds an int8 tensor from explicit values (tests).
  static Tensor FromInt8(Shape shape, std::vector<i8> values);
  static Tensor FromInt32(Shape shape, std::vector<i32> values);

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  i64 NumElements() const { return shape_.NumElements(); }
  i64 SizeBytes() const { return NumElements() * DTypeSizeBytes(dtype_); }
  bool empty() const { return data_.empty(); }

  // Typed element access. T must match the dtype's in-memory representation
  // (i8 for kInt8/kTernary, i32 for kInt32, ...).
  template <typename T>
  std::span<const T> data() const {
    HTVM_CHECK(sizeof(T) == static_cast<size_t>(DTypeSizeBytes(dtype_)));
    return {reinterpret_cast<const T*>(data_.data()),
            static_cast<size_t>(NumElements())};
  }
  template <typename T>
  std::span<T> data() {
    HTVM_CHECK(sizeof(T) == static_cast<size_t>(DTypeSizeBytes(dtype_)));
    return {reinterpret_cast<T*>(data_.data()),
            static_cast<size_t>(NumElements())};
  }

  const u8* raw() const { return data_.data(); }
  u8* raw() { return data_.data(); }

  // Cold-path accessors for serializers, emitters and tests: every call
  // bounds-checks and switches on the dtype, so kernel loops resolve the
  // dtype once and use data<T>() instead. Values are in the i64 domain.
  i64 GetFlat(i64 index) const;
  void SetFlat(i64 index, i64 value);

  // NCHW indexing for rank-4 tensors; cold path like GetFlat/SetFlat.
  i64 At4(i64 n, i64 c, i64 h, i64 w) const;
  void Set4(i64 n, i64 c, i64 h, i64 w, i64 value);

  bool SameAs(const Tensor& other) const;  // shape, dtype and bytes equal

  // Returns a tensor with identical data but a new compatible shape. The
  // rvalue overload moves the storage instead of copying it.
  Tensor Reshaped(Shape new_shape) const&;
  Tensor Reshaped(Shape new_shape) &&;

 private:
  Shape shape_;
  DType dtype_ = DType::kInt8;
  std::vector<u8> data_;
};

}  // namespace htvm
