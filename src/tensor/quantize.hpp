// Quantization utilities.
//
// The flow ingests already-quantized graphs (as in the paper), so these
// helpers implement the *re-quantization* semantics that appear inside the
// graph — the BiasAdd -> right_shift -> clip -> cast(int8) chain of
// Listing 1 — plus ternary packing used by the analog weight storage model.
#pragma once

#include <vector>

#include "support/common.hpp"
#include "support/math_utils.hpp"
#include "tensor/tensor.hpp"

namespace htvm {

// Parameters of the requantization chain after an accumulating op. DORY and
// the accelerators implement exactly this: shift right (rounding), optional
// ReLU, saturate to int8. Real quantized models use per-output-channel
// scales; when `channel_shifts` is non-empty it overrides `shift` per
// channel (dim 1 of an NCHW tensor / the feature dim of an FC output).
struct RequantParams {
  i64 shift = 0;       // arithmetic right shift amount (uniform)
  bool relu = false;   // clamp lower bound at 0 instead of -128
  std::vector<i64> channel_shifts;  // optional per-channel shifts

  bool operator==(const RequantParams&) const = default;
  bool per_channel() const { return !channel_shifts.empty(); }
  i64 ShiftFor(i64 channel) const {
    return per_channel() ? channel_shifts[static_cast<size_t>(channel)]
                         : shift;
  }
};

// The requant epilogue, defined once. For an int32 accumulator `acc`, a
// bias `b`, a shift s in [0, 31] and the relu flag it is
//   v = i32(acc + b)                      bias_add, wrapping like int32
//   r = (v >> s) + ((v >> (s - 1)) & 1)   right_shift, rounding half up
//                                         (r = v when s == 0)
//   y = i8(clamp(r, relu ? 0 : -128, 127))  clip, cast int8 [, clip 0..127]
// which is, element for element, what nn::BiasAdd -> RightShift -> Clip ->
// Cast [-> Clip] compute on the interpreter (nn/kernels.hpp). The rounding
// shift equals RoundingRightShift on the i64 value and cannot overflow.
// RequantizeRow applies it to the n accumulators of one channel row, in
// i32; every DORY output stage and RequantizeTensor go through it.
void RequantizeRow(const i32* acc, i64 n, i32 bias, i64 shift, bool relu,
                   i8* out);

// One accumulator with the uniform shift and no bias.
inline i8 RequantizeValue(i32 acc, const RequantParams& p) {
  i8 out;
  RequantizeRow(&acc, 1, 0, p.shift, p.relu, &out);
  return out;
}

// Elementwise requantization of an int32 tensor into int8; rank-4 tensors
// apply channel_shifts along dim 1, rank-2 along dim 1.
Tensor RequantizeTensor(const Tensor& acc, const RequantParams& p);

// Clamp an int8 activation tensor to 7-bit range [-64, 63] — the analog
// array ingests 7-bit inputs; HTVM inserts this narrowing before analog
// layers so the functional model matches what the IMC hardware computes.
Tensor ClampTo7Bit(const Tensor& t);

// Packs a ternary tensor (values in {-1,0,+1}) at 2 bits/element into bytes
// (4 elements per byte, little-endian within the byte). Returns packed size
// in bytes; used by the binary-size model and verified by unpacking tests.
std::vector<u8> PackTernary(const Tensor& t);

// Inverse of PackTernary; `count` is the element count to recover.
Tensor UnpackTernary(const std::vector<u8>& packed, const Shape& shape);

}  // namespace htvm
