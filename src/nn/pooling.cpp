#include "nn/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <type_traits>

#include "ir/op.hpp"
#include "support/math_utils.hpp"

namespace htvm::nn {
namespace {

struct PoolGeometry {
  i64 N, C, H, W, ph, pw, sy, sx, pt, pl, oh, ow;
};

Result<PoolGeometry> ResolvePool(const Tensor& data,
                                 const std::vector<i64>& pool,
                                 const std::vector<i64>& strides,
                                 const std::vector<i64>& padding) {
  if (data.shape().rank() != 4) {
    return Status::InvalidArgument("pool2d: rank-4 input required");
  }
  // The window walk reduces in i64, which would truncate float elements.
  if (data.dtype() == DType::kFloat32) {
    return Status::InvalidArgument("pool2d: integer data required");
  }
  PoolGeometry g{};
  g.N = data.shape()[0];
  g.C = data.shape()[1];
  g.H = data.shape()[2];
  g.W = data.shape()[3];
  g.ph = pool.size() > 0 ? pool[0] : 2;
  g.pw = pool.size() > 1 ? pool[1] : g.ph;
  g.sy = strides.size() > 0 ? strides[0] : g.ph;
  g.sx = strides.size() > 1 ? strides[1] : g.pw;
  if (g.ph <= 0 || g.pw <= 0 || g.sy <= 0 || g.sx <= 0) {
    return Status::InvalidArgument("pool2d: non-positive window or stride");
  }
  HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(padding, "pool2d"));
  g.pt = pad[0];
  g.pl = pad[1];
  g.oh = ConvOutDim(g.H, g.ph, pad[0], pad[2], g.sy);
  g.ow = ConvOutDim(g.W, g.pw, pad[1], pad[3], g.sx);
  if (g.oh <= 0 || g.ow <= 0) {
    return Status::InvalidArgument("pool2d: empty output");
  }
  return g;
}

// Quantized average pooling averages the in-bounds elements only (TFLite
// style), rounding ties away from zero; a window wholly in padding is 0.
i64 RoundedAverage(i64 sum, i64 count) {
  return count == 0 ? 0 : RoundedDiv(sum, count);
}

// The one window walk of avg, max and global pooling. Per output it clips
// the window to the input once, folds the in-bounds elements into `init`
// with `reduce`, and stores finish(acc, in-bounds count). Elements pass
// through i64 as in GetFlat/SetFlat; ResolvePool has rejected float data.
template <typename Reduce, typename Finish>
Tensor WindowWalk(const Tensor& data, const PoolGeometry& g, i64 init,
                  Reduce reduce, Finish finish) {
  Tensor out(Shape{g.N, g.C, g.oh, g.ow}, data.dtype());
  VisitDType(data.dtype(), [&](auto e) {
    using T = decltype(e);
    const T* plane = data.data<T>().data();
    T* o = out.data<T>().data();
    for (i64 nc = 0; nc < g.N * g.C; ++nc, plane += g.H * g.W) {
      for (i64 oy = 0; oy < g.oh; ++oy) {
        const i64 top = oy * g.sy - g.pt;
        const i64 y0 = std::max<i64>(top, 0);
        const i64 y1 = std::min(top + g.ph, g.H);
        for (i64 ox = 0; ox < g.ow; ++ox) {
          const i64 left = ox * g.sx - g.pl;
          const i64 x0 = std::max<i64>(left, 0);
          const i64 x1 = std::min(left + g.pw, g.W);
          i64 acc = init;
          for (i64 y = y0; y < y1; ++y) {
            for (i64 x = x0; x < x1; ++x) {
              acc = reduce(acc, static_cast<i64>(plane[y * g.W + x]));
            }
          }
          const i64 count =
              std::max<i64>(y1 - y0, 0) * std::max<i64>(x1 - x0, 0);
          *o++ = static_cast<T>(finish(acc, count));
        }
      }
    }
  });
  return out;
}

}  // namespace

Result<Tensor> AvgPool2d(const Tensor& data, const std::vector<i64>& pool,
                         const std::vector<i64>& strides,
                         const std::vector<i64>& padding) {
  HTVM_ASSIGN_OR_RETURN(g, ResolvePool(data, pool, strides, padding));
  return WindowWalk(data, g, 0, std::plus<i64>(), RoundedAverage);
}

Result<Tensor> MaxPool2d(const Tensor& data, const std::vector<i64>& pool,
                         const std::vector<i64>& strides,
                         const std::vector<i64>& padding) {
  HTVM_ASSIGN_OR_RETURN(g, ResolvePool(data, pool, strides, padding));
  // The maximum starts at the element type's minimum (-128 for int8),
  // which is also what a window wholly in padding yields.
  i64 lowest = 0;
  VisitDType(data.dtype(), [&](auto e) {
    using T = decltype(e);
    if constexpr (std::is_integral_v<T>) lowest = std::numeric_limits<T>::min();
  });
  return WindowWalk(
      data, g, lowest, [](i64 acc, i64 v) { return std::max(acc, v); },
      [](i64 acc, i64) { return acc; });
}

Result<Tensor> GlobalAvgPool2d(const Tensor& data) {
  if (data.shape().rank() != 4) {
    return Status::InvalidArgument("global_avg_pool2d: rank-4 input");
  }
  // The whole plane is one window.
  return AvgPool2d(data, {data.shape()[2], data.shape()[3]}, {1, 1}, {});
}

Result<Tensor> Pad2d(const Tensor& data, const std::vector<i64>& pad_width) {
  if (data.shape().rank() != 4) {
    return Status::InvalidArgument("pad: rank-4 input required");
  }
  if (pad_width.size() != 4) {
    return Status::InvalidArgument("pad: pad_width must be [t, l, b, r]");
  }
  HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(pad_width, "pad"));
  const i64 N = data.shape()[0], C = data.shape()[1];
  const i64 H = data.shape()[2], W = data.shape()[3];
  const i64 OH = H + pad[0] + pad[2], OW = W + pad[1] + pad[3];
  Tensor out(Shape{N, C, OH, OW}, data.dtype());
  // Each input row is copied whole to its padded place; the border stays
  // zero.
  const i64 elem = DTypeSizeBytes(data.dtype());
  for (i64 nc = 0; nc < N * C; ++nc) {
    for (i64 y = 0; y < H; ++y) {
      std::memcpy(out.raw() + ((nc * OH + y + pad[0]) * OW + pad[1]) * elem,
                  data.raw() + (nc * H + y) * W * elem,
                  static_cast<size_t>(W * elem));
    }
  }
  return out;
}

Result<Tensor> Softmax(const Tensor& data) {
  if (data.dtype() != DType::kInt8) {
    return Status::InvalidArgument("softmax: int8 input required");
  }
  // Fixed-point softmax over the last axis: shift by the row max, compute
  // 2^(x/16) in Q16 via a small exact table on the integer part, normalize
  // to [0,127]. Deterministic across platforms (integer-only).
  const i64 rank = data.shape().rank();
  const i64 cols = data.shape()[rank - 1];
  const i64 rows = data.NumElements() / cols;
  Tensor out(data.shape(), DType::kInt8);
  std::vector<i64> q(static_cast<size_t>(cols));
  for (i64 r = 0; r < rows; ++r) {
    i64 maxv = -128;
    for (i64 c = 0; c < cols; ++c) {
      maxv = std::max(maxv, data.GetFlat(r * cols + c));
    }
    i64 total = 0;
    for (i64 c = 0; c < cols; ++c) {
      const i64 x = data.GetFlat(r * cols + c) - maxv;  // <= 0
      // 2^(x/16) in Q16: integer part by shifting, fractional part via a
      // 16-entry lookup of round(2^16 * 2^(f/16)).
      static constexpr i64 kFrac[16] = {
          65536, 68438, 71468, 74632, 77936, 81386, 84990, 88752,
          92682, 96785, 101070, 105545, 110218, 115098, 120194, 125515};
      const i64 e = -x;            // >= 0
      const i64 ip = e / 16;       // integer halvings
      const i64 fp = e % 16;
      const i64 val = ip >= 32 ? 0 : (kFrac[15 - fp] >> (ip + (fp ? 1 : 0)));
      q[static_cast<size_t>(c)] = val;
      total += val;
    }
    for (i64 c = 0; c < cols; ++c) {
      const i64 scaled =
          total == 0 ? 0 : (q[static_cast<size_t>(c)] * 127 + total / 2) / total;
      out.SetFlat(r * cols + c, Clamp(scaled, 0, 127));
    }
  }
  return out;
}

}  // namespace htvm::nn
