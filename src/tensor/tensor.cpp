#include "tensor/tensor.hpp"

namespace htvm {

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype) {
  data_.assign(static_cast<size_t>(SizeBytes()), 0);
}

Tensor Tensor::Zeros(Shape shape, DType dtype) {
  return Tensor(std::move(shape), dtype);
}

Tensor Tensor::Random(Shape shape, DType dtype, Rng& rng) {
  Tensor t(std::move(shape), dtype);
  const i64 n = t.NumElements();
  switch (dtype) {
    case DType::kInt8: {
      auto d = t.data<i8>();
      // Stay off the extremes so accumulated conv sums exercise requant
      // without instantly saturating in every position.
      for (i64 i = 0; i < n; ++i) d[static_cast<size_t>(i)] = rng.UniformInt8(-100, 100);
      break;
    }
    case DType::kTernary: {
      auto d = t.data<i8>();
      for (i64 i = 0; i < n; ++i) d[static_cast<size_t>(i)] = rng.Ternary();
      break;
    }
    case DType::kInt16: {
      auto d = t.data<i16>();
      for (i64 i = 0; i < n; ++i)
        d[static_cast<size_t>(i)] = static_cast<i16>(rng.UniformInt(-1000, 1000));
      break;
    }
    case DType::kInt32: {
      auto d = t.data<i32>();
      for (i64 i = 0; i < n; ++i)
        d[static_cast<size_t>(i)] = static_cast<i32>(rng.UniformInt(-4096, 4096));
      break;
    }
    case DType::kFloat32: {
      auto d = t.data<float>();
      for (i64 i = 0; i < n; ++i)
        d[static_cast<size_t>(i)] = static_cast<float>(rng.UniformDouble() * 2.0 - 1.0);
      break;
    }
  }
  return t;
}

Tensor Tensor::FromInt8(Shape shape, std::vector<i8> values) {
  Tensor t(std::move(shape), DType::kInt8);
  HTVM_CHECK(static_cast<i64>(values.size()) == t.NumElements());
  std::memcpy(t.raw(), values.data(), values.size());
  return t;
}

Tensor Tensor::FromInt32(Shape shape, std::vector<i32> values) {
  Tensor t(std::move(shape), DType::kInt32);
  HTVM_CHECK(static_cast<i64>(values.size()) == t.NumElements());
  std::memcpy(t.raw(), values.data(), values.size() * sizeof(i32));
  return t;
}

i64 Tensor::GetFlat(i64 index) const {
  HTVM_CHECK(index >= 0 && index < NumElements());
  const size_t i = static_cast<size_t>(index);
  switch (dtype_) {
    case DType::kInt8:
    case DType::kTernary:
      return reinterpret_cast<const i8*>(data_.data())[i];
    case DType::kInt16:
      return reinterpret_cast<const i16*>(data_.data())[i];
    case DType::kInt32:
      return reinterpret_cast<const i32*>(data_.data())[i];
    case DType::kFloat32:
      return static_cast<i64>(reinterpret_cast<const float*>(data_.data())[i]);
  }
  HTVM_UNREACHABLE("bad dtype");
}

void Tensor::SetFlat(i64 index, i64 value) {
  HTVM_CHECK(index >= 0 && index < NumElements());
  const size_t i = static_cast<size_t>(index);
  switch (dtype_) {
    case DType::kInt8:
    case DType::kTernary:
      reinterpret_cast<i8*>(data_.data())[i] = static_cast<i8>(value);
      return;
    case DType::kInt16:
      reinterpret_cast<i16*>(data_.data())[i] = static_cast<i16>(value);
      return;
    case DType::kInt32:
      reinterpret_cast<i32*>(data_.data())[i] = static_cast<i32>(value);
      return;
    case DType::kFloat32:
      reinterpret_cast<float*>(data_.data())[i] = static_cast<float>(value);
      return;
  }
  HTVM_UNREACHABLE("bad dtype");
}

i64 Tensor::At4(i64 n, i64 c, i64 h, i64 w) const {
  HTVM_CHECK(shape_.rank() == 4);
  const i64 C = shape_[1], H = shape_[2], W = shape_[3];
  return GetFlat(((n * C + c) * H + h) * W + w);
}

void Tensor::Set4(i64 n, i64 c, i64 h, i64 w, i64 value) {
  HTVM_CHECK(shape_.rank() == 4);
  const i64 C = shape_[1], H = shape_[2], W = shape_[3];
  SetFlat(((n * C + c) * H + h) * W + w, value);
}

bool Tensor::SameAs(const Tensor& other) const {
  return shape_ == other.shape_ && dtype_ == other.dtype_ &&
         data_ == other.data_;
}

Tensor Tensor::Reshaped(Shape new_shape) const& {
  return Tensor(*this).Reshaped(std::move(new_shape));
}

Tensor Tensor::Reshaped(Shape new_shape) && {
  HTVM_CHECK_MSG(new_shape.NumElements() == NumElements(),
                 "reshape changes element count");
  shape_ = std::move(new_shape);
  return std::move(*this);
}

}  // namespace htvm
