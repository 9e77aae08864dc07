#include "nn/kernels.hpp"

#include <algorithm>
#include <functional>
#include <numeric>

#include "ir/op.hpp"
#include "support/math_utils.hpp"

namespace htvm::nn {
namespace {

// Terms per i32 partial sum. |i8 * i8| <= 2^14, so 2^16 terms stay below
// 2^30 and a chunk cannot overflow.
constexpr i64 kChunk = i64{1} << 16;

// Output pixels per im2col panel.
constexpr i64 kPanel = 64;

// sums[j * sum_stride] += x . w_j over len <= kChunk terms, for the J
// weight rows w_j = w + j * w_stride. The sum runs in i32, which a chunk
// cannot overflow, and adds in wrapping u32. GCC vectorizes the loop into
// pmaddwd at baseline x86-64; the J rows share each load of x.
template <int J>
void DotChunk(const i16* x, const i16* w, i64 w_stride, i64 len, u32* sums,
              i64 sum_stride) {
  i32 acc[J] = {};
  for (i64 r = 0; r < len; ++r) {
    for (int j = 0; j < J; ++j) acc[j] += x[r] * w[j * w_stride + r];
  }
  for (int j = 0; j < J; ++j) sums[j * sum_stride] += static_cast<u32>(acc[j]);
}

// out[k * k_stride + p * p_stride] += rows[p] . w[k] (wrapping u32) for
// p < P, k < K, every row n long: four output channels per pass over the
// rows, then the K % 4 remainder one at a time.
void Gemm(const i16* rows, i64 P, const i16* w, i64 K, i64 n, u32* out,
          i64 k_stride, i64 p_stride) {
  for (i64 base = 0; base < n; base += kChunk) {
    const i64 len = std::min(kChunk, n - base);
    i64 k = 0;
    for (; k + 4 <= K; k += 4) {
      for (i64 p = 0; p < P; ++p) {
        DotChunk<4>(rows + p * n + base, w + k * n + base, n, len,
                    out + k * k_stride + p * p_stride, k_stride);
      }
    }
    for (; k < K; ++k) {
      for (i64 p = 0; p < P; ++p) {
        DotChunk<1>(rows + p * n + base, w + k * n + base, n, len,
                    out + k * k_stride + p * p_stride, k_stride);
      }
    }
  }
}

// i8 rows [rows x len] widened to i16 rows of AlignUp(len, 8), the tail
// zero: whole 8-lane vectors, so the dot loops never run a scalar remainder.
std::vector<i16> WidenRows(const i8* src, i64 rows, i64 len) {
  const i64 n = AlignUp(len, 8);
  std::vector<i16> out(static_cast<size_t>(rows * n), 0);
  for (i64 i = 0; i < rows; ++i) {
    std::copy_n(src + i * len, len, out.data() + i * n);
  }
  return out;
}

// i8 [len x cols] widened and transposed to cols i16 rows of
// AlignUp(len, 8): the row layout WidenRows gives the same matrix stored
// [cols x len].
std::vector<i16> WidenColumns(const i8* src, i64 len, i64 cols) {
  const i64 n = AlignUp(len, 8);
  std::vector<i16> out(static_cast<size_t>(cols * n), 0);
  for (i64 x = 0; x < len; ++x) {
    for (i64 c = 0; c < cols; ++c) out[c * n + x] = src[x * cols + c];
  }
  return out;
}

// Product of the dims in front of the matrix dims.
i64 BatchOf(const Shape& s) {
  return std::accumulate(s.dims().begin(), s.dims().end() - 2, i64{1},
                         std::multiplies<>());
}

struct ConvGeometry {
  i64 N, C, H, W, K, Cg, kh, kw, sy, sx, oh, ow, groups;
  std::array<i64, 4> pad;  // top, left, bottom, right
};

// Groups with more than one output channel: each group's input is copied
// once into a zero-padded i16 plane, then panels of up to kPanel output
// pixels by R = Cg * kh * kw taps run through Gemm against the widened
// weights.
void Im2colConv(const ConvGeometry& g, const i8* d, const i8* w, u32* o) {
  const i64 R = g.Cg * g.kh * g.kw;
  const i64 Rp = AlignUp(R, 8);
  const i64 Hp = g.H + g.pad[0] + g.pad[2], Wp = g.W + g.pad[1] + g.pad[3];
  const i64 pixels = g.oh * g.ow;
  const i64 kpg = g.K / g.groups;
  const std::vector<i16> wide = WidenRows(w, g.K, R);
  // The borders stay zero; each group overwrites only the interior.
  std::vector<i16> plane(static_cast<size_t>(g.Cg * Hp * Wp), 0);
  // Panel rows are Rp long like the widened weights; their tails stay zero.
  std::vector<i16> panel(static_cast<size_t>(std::min(kPanel, pixels) * Rp), 0);
  // Offset of tap r = (c, fy, fx) from a window's top-left in the plane.
  std::vector<i64> tap(static_cast<size_t>(R));
  for (i64 c = 0, r = 0; c < g.Cg; ++c) {
    for (i64 fy = 0; fy < g.kh; ++fy) {
      for (i64 fx = 0; fx < g.kw; ++fx) tap[r++] = (c * Hp + fy) * Wp + fx;
    }
  }
  for (i64 n = 0; n < g.N; ++n) {
    for (i64 grp = 0; grp < g.groups; ++grp) {
      for (i64 c = 0; c < g.Cg; ++c) {
        const i8* src = d + (n * g.C + grp * g.Cg + c) * g.H * g.W;
        for (i64 y = 0; y < g.H; ++y) {
          std::copy_n(src + y * g.W, g.W,
                      plane.data() + (c * Hp + y + g.pad[0]) * Wp + g.pad[1]);
        }
      }
      u32* og = o + (n * g.K + grp * kpg) * pixels;
      for (i64 p0 = 0; p0 < pixels; p0 += kPanel) {
        const i64 np = std::min(kPanel, pixels - p0);
        for (i64 p = 0; p < np; ++p) {
          const i64 oy = (p0 + p) / g.ow, ox = (p0 + p) % g.ow;
          const i16* window = plane.data() + oy * g.sy * Wp + ox * g.sx;
          i16* row = panel.data() + p * Rp;
          for (i64 r = 0; r < R; ++r) row[r] = window[tap[r]];
        }
        Gemm(panel.data(), np, wide.data() + grp * kpg * Rp, kpg, Rp, og + p0,
             pixels, 1);
      }
    }
  }
}

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

// One output channel per group (depthwise): every im2col column would be
// used once, so a panel is pure copy cost. Instead each (c, fy, fx) tap
// accumulates over the whole output plane of channel k in wrapping u32.
void DirectConv(const ConvGeometry& g, const i8* d, const i8* w, u32* o) {
  // Output rows rows[fy] and columns cols[fx] read inside the unpadded
  // input for filter tap (fy, fx).
  std::vector<Range> rows(static_cast<size_t>(g.kh));
  std::vector<Range> cols(static_cast<size_t>(g.kw));
  for (i64 fy = 0; fy < g.kh; ++fy) {
    rows[fy] = InBounds(fy - g.pad[0], g.sy, g.H, g.oh);
  }
  for (i64 fx = 0; fx < g.kw; ++fx) {
    cols[fx] = InBounds(fx - g.pad[1], g.sx, g.W, g.ow);
  }
  const i64 kpg = g.K / g.groups;
  for (i64 n = 0; n < g.N; ++n) {
    for (i64 k = 0; k < g.K; ++k) {
      u32* plane = o + (n * g.K + k) * g.oh * g.ow;
      const i64 grp = k / kpg;
      for (i64 c = 0; c < g.Cg; ++c) {
        const i8* dplane = d + (n * g.C + grp * g.Cg + c) * g.H * g.W;
        const i8* taps = w + (k * g.Cg + c) * g.kh * g.kw;
        for (i64 fy = 0; fy < g.kh; ++fy) {
          for (i64 fx = 0; fx < g.kw; ++fx) {
            const i32 wv = taps[fy * g.kw + fx];
            if (wv == 0) continue;
            const i64 dx = fx - g.pad[1];
            for (i64 oy = rows[fy].lo; oy < rows[fy].hi; ++oy) {
              const i8* drow = dplane + (oy * g.sy + fy - g.pad[0]) * g.W;
              u32* orow = plane + oy * g.ow;
              for (i64 ox = cols[fx].lo; ox < cols[fx].hi; ++ox) {
                orow[ox] += static_cast<u32>(wv * drow[ox * g.sx + dx]);
              }
            }
          }
        }
      }
    }
  }
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
  ConvGeometry g{};
  g.N = data.shape()[0];
  g.C = data.shape()[1];
  g.H = data.shape()[2];
  g.W = data.shape()[3];
  g.K = weight.shape()[0];
  g.Cg = weight.shape()[1];
  g.kh = weight.shape()[2];
  g.kw = weight.shape()[3];
  g.groups = groups;
  if (groups <= 0 || g.C % groups != 0 || g.K % groups != 0 ||
      g.Cg != g.C / groups) {
    return Status::InvalidArgument("conv2d: inconsistent groups");
  }
  g.sy = strides.size() > 0 ? strides[0] : 1;
  g.sx = strides.size() > 1 ? strides[1] : 1;
  if (g.kh <= 0 || g.kw <= 0 || g.sy <= 0 || g.sx <= 0) {
    return Status::InvalidArgument("conv2d: non-positive kernel or stride");
  }
  HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(padding, "conv2d"));
  g.pad = pad;
  g.oh = ConvOutDim(g.H, g.kh, pad[0], pad[2], g.sy);
  g.ow = ConvOutDim(g.W, g.kw, pad[1], pad[3], g.sx);
  if (g.oh <= 0 || g.ow <= 0) {
    return Status::InvalidArgument("conv2d: empty output");
  }

  Tensor out(Shape{g.N, g.K, g.oh, g.ow}, DType::kInt32);
  const i8* d = data.data<i8>().data();
  const i8* w = weight.data<i8>().data();
  // Wrapping u32 sums keep exactly the low 32 bits of the exact sum, which
  // is all the int32 output holds.
  u32* o = reinterpret_cast<u32*>(out.data<i32>().data());
  if (g.K / groups > 1) {
    Im2colConv(g, d, w, o);
  } else {
    DirectConv(g, d, w, o);
  }
  return out;
}

Result<Tensor> Dense(const Tensor& data, const Tensor& weight) {
  if (data.shape().rank() != 2 || weight.shape().rank() != 2) {
    return Status::InvalidArgument("dense: rank-2 tensors required");
  }
  if (data.dtype() != DType::kInt8) {
    return Status::InvalidArgument("dense: int8 data required");
  }
  if (weight.dtype() != DType::kInt8 && weight.dtype() != DType::kTernary) {
    return Status::InvalidArgument("dense: int8/ternary weight required");
  }
  if (data.shape()[1] != weight.shape()[1]) {
    return Status::InvalidArgument("dense: reduction dims differ");
  }
  const i64 N = data.shape()[0], I = data.shape()[1], O = weight.shape()[0];
  Tensor out(Shape{N, O}, DType::kInt32);
  const i8* d = data.data<i8>().data();
  const i8* w = weight.data<i8>().data();
  const std::vector<i16> rows = WidenRows(d, N, I);
  const std::vector<i16> wide = WidenRows(w, O, I);
  Gemm(rows.data(), N, wide.data(), O, AlignUp(I, 8),
       reinterpret_cast<u32*>(out.data<i32>().data()), 1, O);
  return out;
}

Result<Tensor> MatMul(const Tensor& a, const Tensor& b, bool transpose_b) {
  const Shape& as = a.shape();
  const Shape& bs = b.shape();
  if (as.rank() < 2 || bs.rank() < 2) {
    return Status::InvalidArgument("matmul: rank >= 2 tensors required");
  }
  if (a.dtype() != DType::kInt8) {
    return Status::InvalidArgument("matmul: int8 lhs required");
  }
  if (b.dtype() != DType::kInt8 && b.dtype() != DType::kTernary) {
    return Status::InvalidArgument("matmul: int8/ternary rhs required");
  }
  const i64 m = as[as.rank() - 2];
  const i64 kk = as[as.rank() - 1];
  const i64 n = transpose_b ? bs[bs.rank() - 2] : bs[bs.rank() - 1];
  const i64 k2 = transpose_b ? bs[bs.rank() - 1] : bs[bs.rank() - 2];
  if (kk != k2) {
    return Status::InvalidArgument("matmul: reduction dims differ");
  }
  const i64 batch = BatchOf(as);
  const i64 b_batch = BatchOf(bs);
  if (b_batch != 1 && b_batch != batch) {
    return Status::InvalidArgument("matmul: batch dims differ");
  }
  std::vector<i64> out_dims(as.dims().begin(), as.dims().end() - 1);
  out_dims.push_back(n);
  Tensor out(Shape(out_dims), DType::kInt32);
  const i8* ad = a.data<i8>().data();
  const i8* bd = b.data<i8>().data();
  u32* o = reinterpret_cast<u32*>(out.data<i32>().data());
  // The rhs as n rows of kk, widened once when every batch shares it.
  std::vector<i16> wide;
  for (i64 bi = 0; bi < batch; ++bi) {
    if (bi == 0 || b_batch != 1) {
      const i8* bb = bd + (b_batch == 1 ? 0 : bi) * n * kk;
      wide = transpose_b ? WidenRows(bb, n, kk) : WidenColumns(bb, kk, n);
    }
    const std::vector<i16> rows = WidenRows(ad + bi * m * kk, m, kk);
    Gemm(rows.data(), m, wide.data(), n, AlignUp(kk, 8), o + bi * m * n, 1,
         n);
  }
  return out;
}

}  // namespace htvm::nn
