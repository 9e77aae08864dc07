#include "tensor/quantize.hpp"

#include "support/math_utils.hpp"

namespace htvm {

Tensor RequantizeTensor(const Tensor& acc, const RequantParams& p) {
  HTVM_CHECK(acc.dtype() == DType::kInt32);
  Tensor out(acc.shape(), DType::kInt8);
  const i64 n = acc.NumElements();
  if (!p.per_channel()) {
    for (i64 i = 0; i < n; ++i) {
      out.SetFlat(i, RequantizeValue(acc.GetFlat(i), p));
    }
    return out;
  }
  // Channel dim is dim 1 for both NCHW and [N, F] tensors.
  HTVM_CHECK(acc.shape().rank() >= 2);
  const i64 channels = acc.shape()[1];
  HTVM_CHECK(static_cast<i64>(p.channel_shifts.size()) == channels);
  i64 inner = 1;
  for (i64 d = 2; d < acc.shape().rank(); ++d) inner *= acc.shape()[d];
  for (i64 i = 0; i < n; ++i) {
    const i64 c = (i / inner) % channels;
    out.SetFlat(i, RequantizeValueAt(acc.GetFlat(i), p, c));
  }
  return out;
}

Tensor ClampTo7Bit(const Tensor& t) {
  HTVM_CHECK(t.dtype() == DType::kInt8);
  Tensor out(t.shape(), DType::kInt8);
  const auto src = t.data<i8>();
  const auto dst = out.data<i8>();
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<i8>(Clamp(src[i], -64, 63));
  }
  return out;
}

namespace {
// 2-bit codes: 0 -> 0, 1 -> +1, 2 -> -1. Code 3 is unused.
u8 EncodeTernary(i64 v) {
  if (v == 0) return 0;
  if (v == 1) return 1;
  HTVM_CHECK_MSG(v == -1, "ternary tensor holds non-ternary value");
  return 2;
}

i8 DecodeTernary(u8 code) {
  switch (code) {
    case 0: return 0;
    case 1: return 1;
    case 2: return -1;
    default: HTVM_UNREACHABLE("invalid ternary code");
  }
}
}  // namespace

std::vector<u8> PackTernary(const Tensor& t) {
  HTVM_CHECK(t.dtype() == DType::kTernary);
  const i64 n = t.NumElements();
  std::vector<u8> packed(static_cast<size_t>(CeilDiv(n, 4)), 0);
  for (i64 i = 0; i < n; ++i) {
    const u8 code = EncodeTernary(t.GetFlat(i));
    packed[static_cast<size_t>(i / 4)] |=
        static_cast<u8>(code << (2 * (i % 4)));
  }
  return packed;
}

Tensor UnpackTernary(const std::vector<u8>& packed, const Shape& shape) {
  Tensor t(shape, DType::kTernary);
  const i64 n = t.NumElements();
  HTVM_CHECK(static_cast<i64>(packed.size()) >= CeilDiv(n, 4));
  for (i64 i = 0; i < n; ++i) {
    const u8 code =
        (packed[static_cast<size_t>(i / 4)] >> (2 * (i % 4))) & 0x3;
    t.SetFlat(i, DecodeTernary(code));
  }
  return t;
}

}  // namespace htvm
