#include "nn/kernels.hpp"

#include <algorithm>

#include "support/math_utils.hpp"

namespace htvm::nn {
namespace {

struct Range {
  i64 lo = 0, hi = 0;
};

// The output positions o in [0, out) whose input position
// o * stride + offset lies in [0, extent).
Range InBounds(i64 offset, i64 stride, i64 extent, i64 out) {
  const i64 last = extent - 1 - offset;
  return {offset >= 0 ? 0 : CeilDiv(-offset, stride),
          last < 0 ? 0 : std::min(out, last / stride + 1)};
}

}  // namespace

Result<Tensor> Conv2d(const Tensor& data, const Tensor& weight,
                      const std::vector<i64>& strides,
                      const std::vector<i64>& padding, i64 groups) {
  if (data.shape().rank() != 4 || weight.shape().rank() != 4) {
    return Status::InvalidArgument("conv2d: rank-4 tensors required");
  }
  if (data.dtype() != DType::kInt8) {
    return Status::InvalidArgument("conv2d: int8 data required");
  }
  if (weight.dtype() != DType::kInt8 && weight.dtype() != DType::kTernary) {
    return Status::InvalidArgument("conv2d: int8/ternary weight required");
  }
  const i64 N = data.shape()[0], C = data.shape()[1];
  const i64 H = data.shape()[2], W = data.shape()[3];
  const i64 K = weight.shape()[0], Cg = weight.shape()[1];
  const i64 kh = weight.shape()[2], kw = weight.shape()[3];
  if (groups <= 0 || C % groups != 0 || K % groups != 0 || Cg != C / groups) {
    return Status::InvalidArgument("conv2d: inconsistent groups");
  }
  const i64 sy = strides.size() > 0 ? strides[0] : 1;
  const i64 sx = strides.size() > 1 ? strides[1] : 1;
  if (sy <= 0 || sx <= 0) {
    return Status::InvalidArgument("conv2d: non-positive stride");
  }
  std::vector<i64> pad = padding;
  if (pad.empty()) pad = {0, 0, 0, 0};
  if (pad.size() == 2) pad = {pad[0], pad[1], pad[0], pad[1]};
  if (pad.size() != 4) {
    return Status::InvalidArgument("conv2d: bad padding");
  }
  const i64 oh = (H + pad[0] + pad[2] - kh) / sy + 1;
  const i64 ow = (W + pad[1] + pad[3] - kw) / sx + 1;
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("conv2d: empty output");
  }

  Tensor out(Shape{N, K, oh, ow}, DType::kInt32);
  const i8* d = data.data<i8>().data();
  const i8* w = weight.data<i8>().data();
  // Wrapping u32 sums keep exactly the low 32 bits of the exact sum, which
  // is all the int32 output holds.
  u32* o = reinterpret_cast<u32*>(out.data<i32>().data());
  const i64 kpg = K / groups;  // output channels per group

  // Output rows rows[fy] and columns cols[fx] read inside the unpadded
  // input for filter tap (fy, fx).
  std::vector<Range> row_ranges(static_cast<size_t>(kh));
  std::vector<Range> col_ranges(static_cast<size_t>(kw));
  const Range* rows = row_ranges.data();
  const Range* cols = col_ranges.data();
  for (i64 fy = 0; fy < kh; ++fy) {
    row_ranges[static_cast<size_t>(fy)] = InBounds(fy - pad[0], sy, H, oh);
  }
  for (i64 fx = 0; fx < kw; ++fx) {
    col_ranges[static_cast<size_t>(fx)] = InBounds(fx - pad[1], sx, W, ow);
  }

  // One (c, fy, fx) tap at a time over the whole output plane of channel k.
  for (i64 n = 0; n < N; ++n) {
    for (i64 k = 0; k < K; ++k) {
      u32* plane = o + (n * K + k) * oh * ow;
      const i64 g = k / kpg;
      for (i64 c = 0; c < Cg; ++c) {
        const i8* dplane = d + (n * C + g * Cg + c) * H * W;
        const i8* taps = w + (k * Cg + c) * kh * kw;
        for (i64 fy = 0; fy < kh; ++fy) {
          for (i64 fx = 0; fx < kw; ++fx) {
            const i32 wv = taps[fy * kw + fx];
            if (wv == 0) continue;
            const i64 dx = fx - pad[1];
            for (i64 oy = rows[fy].lo; oy < rows[fy].hi; ++oy) {
              const i8* drow = dplane + (oy * sy + fy - pad[0]) * W;
              u32* orow = plane + oy * ow;
              for (i64 ox = cols[fx].lo; ox < cols[fx].hi; ++ox) {
                orow[ox] += static_cast<u32>(wv * drow[ox * sx + dx]);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

Result<Tensor> Dense(const Tensor& data, const Tensor& weight) {
  if (data.shape().rank() != 2 || weight.shape().rank() != 2) {
    return Status::InvalidArgument("dense: rank-2 tensors required");
  }
  if (data.shape()[1] != weight.shape()[1]) {
    return Status::InvalidArgument("dense: reduction dims differ");
  }
  const i64 N = data.shape()[0], I = data.shape()[1], O = weight.shape()[0];
  Tensor out(Shape{N, O}, DType::kInt32);
  const i8* d = reinterpret_cast<const i8*>(data.raw());
  const i8* w = reinterpret_cast<const i8*>(weight.raw());
  i32* o = reinterpret_cast<i32*>(out.raw());
  for (i64 n = 0; n < N; ++n) {
    for (i64 k = 0; k < O; ++k) {
      i64 acc = 0;
      const i8* drow = d + n * I;
      const i8* wrow = w + k * I;
      for (i64 i = 0; i < I; ++i) {
        acc += static_cast<i64>(drow[i]) * static_cast<i64>(wrow[i]);
      }
      o[n * O + k] = static_cast<i32>(acc);
    }
  }
  return out;
}

}  // namespace htvm::nn
