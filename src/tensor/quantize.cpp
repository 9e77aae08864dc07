#include "tensor/quantize.hpp"

#include "support/math_utils.hpp"

namespace htvm {

void RequantizeRow(const i32* acc, i64 n, i32 bias, i64 shift, bool relu,
                   i8* out) {
  HTVM_CHECK(shift >= 0 && shift <= 31);
  const int s = static_cast<int>(shift);
  // s == 0 adds no rounding bit: the half shift is 0 and its mask clears it.
  const int half = s > 0 ? s - 1 : 0;
  const i32 round = s > 0 ? 1 : 0;
  const i32 lo = relu ? 0 : -128;
  const u32 b = static_cast<u32>(bias);
  for (i64 i = 0; i < n; ++i) {
    const i32 v = static_cast<i32>(static_cast<u32>(acc[i]) + b);
    const i32 r = (v >> s) + ((v >> half) & round);
    out[i] = static_cast<i8>(r < lo ? lo : (r > 127 ? 127 : r));
  }
}

Tensor RequantizeTensor(const Tensor& acc, const RequantParams& p) {
  HTVM_CHECK(acc.dtype() == DType::kInt32);
  Tensor out(acc.shape(), DType::kInt8);
  const i32* src = acc.data<i32>().data();
  i8* dst = out.data<i8>().data();
  if (!p.per_channel()) {
    RequantizeRow(src, acc.NumElements(), 0, p.shift, p.relu, dst);
    return out;
  }
  // Channel dim is dim 1 for both NCHW and [N, F] tensors.
  HTVM_CHECK(acc.shape().rank() >= 2);
  const i64 channels = acc.shape()[1];
  HTVM_CHECK(static_cast<i64>(p.channel_shifts.size()) == channels);
  i64 inner = 1;
  for (i64 d = 2; d < acc.shape().rank(); ++d) inner *= acc.shape()[d];
  for (i64 row = 0; row * inner < acc.NumElements(); ++row) {
    RequantizeRow(src + row * inner, inner, 0, p.ShiftFor(row % channels),
                  p.relu, dst + row * inner);
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
