#include "nn/kernels.hpp"

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
  PoolGeometry g{};
  g.N = data.shape()[0];
  g.C = data.shape()[1];
  g.H = data.shape()[2];
  g.W = data.shape()[3];
  g.ph = pool.size() > 0 ? pool[0] : 2;
  g.pw = pool.size() > 1 ? pool[1] : g.ph;
  g.sy = strides.size() > 0 ? strides[0] : g.ph;
  g.sx = strides.size() > 1 ? strides[1] : g.pw;
  HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(padding, "pool2d"));
  g.pt = pad[0];
  g.pl = pad[1];
  g.oh = (g.H + pad[0] + pad[2] - g.ph) / g.sy + 1;
  g.ow = (g.W + pad[1] + pad[3] - g.pw) / g.sx + 1;
  if (g.oh <= 0 || g.ow <= 0) {
    return Status::InvalidArgument("pool2d: empty output");
  }
  return g;
}

}  // namespace

Result<Tensor> AvgPool2d(const Tensor& data, const std::vector<i64>& pool,
                         const std::vector<i64>& strides,
                         const std::vector<i64>& padding) {
  HTVM_ASSIGN_OR_RETURN(g, ResolvePool(data, pool, strides, padding));
  Tensor out(Shape{g.N, g.C, g.oh, g.ow}, data.dtype());
  for (i64 n = 0; n < g.N; ++n) {
    for (i64 c = 0; c < g.C; ++c) {
      for (i64 oy = 0; oy < g.oh; ++oy) {
        for (i64 ox = 0; ox < g.ow; ++ox) {
          i64 sum = 0;
          i64 count = 0;  // average over in-bounds elements (TFLite style)
          for (i64 fy = 0; fy < g.ph; ++fy) {
            const i64 iy = oy * g.sy + fy - g.pt;
            if (iy < 0 || iy >= g.H) continue;
            for (i64 fx = 0; fx < g.pw; ++fx) {
              const i64 ix = ox * g.sx + fx - g.pl;
              if (ix < 0 || ix >= g.W) continue;
              sum += data.At4(n, c, iy, ix);
              ++count;
            }
          }
          // Round to nearest, ties away from zero — the integer semantics of
          // quantized average pooling.
          i64 avg = 0;
          if (count > 0) {
            avg = sum >= 0 ? (sum + count / 2) / count
                           : -((-sum + count / 2) / count);
          }
          out.Set4(n, c, oy, ox, avg);
        }
      }
    }
  }
  return out;
}

Result<Tensor> MaxPool2d(const Tensor& data, const std::vector<i64>& pool,
                         const std::vector<i64>& strides,
                         const std::vector<i64>& padding) {
  HTVM_ASSIGN_OR_RETURN(g, ResolvePool(data, pool, strides, padding));
  Tensor out(Shape{g.N, g.C, g.oh, g.ow}, data.dtype());
  for (i64 n = 0; n < g.N; ++n) {
    for (i64 c = 0; c < g.C; ++c) {
      for (i64 oy = 0; oy < g.oh; ++oy) {
        for (i64 ox = 0; ox < g.ow; ++ox) {
          i64 best = -128;
          for (i64 fy = 0; fy < g.ph; ++fy) {
            const i64 iy = oy * g.sy + fy - g.pt;
            if (iy < 0 || iy >= g.H) continue;
            for (i64 fx = 0; fx < g.pw; ++fx) {
              const i64 ix = ox * g.sx + fx - g.pl;
              if (ix < 0 || ix >= g.W) continue;
              best = std::max(best, data.At4(n, c, iy, ix));
            }
          }
          out.Set4(n, c, oy, ox, best);
        }
      }
    }
  }
  return out;
}

Result<Tensor> GlobalAvgPool2d(const Tensor& data) {
  if (data.shape().rank() != 4) {
    return Status::InvalidArgument("global_avg_pool2d: rank-4 input");
  }
  const i64 N = data.shape()[0], C = data.shape()[1];
  const i64 H = data.shape()[2], W = data.shape()[3];
  Tensor out(Shape{N, C, 1, 1}, data.dtype());
  const i64 count = H * W;
  for (i64 n = 0; n < N; ++n) {
    for (i64 c = 0; c < C; ++c) {
      i64 sum = 0;
      for (i64 y = 0; y < H; ++y)
        for (i64 x = 0; x < W; ++x) sum += data.At4(n, c, y, x);
      const i64 avg = sum >= 0 ? (sum + count / 2) / count
                               : -((-sum + count / 2) / count);
      out.Set4(n, c, 0, 0, avg);
    }
  }
  return out;
}

Result<Tensor> Pad2d(const Tensor& data, const std::vector<i64>& pad_width) {
  if (data.shape().rank() != 4) {
    return Status::InvalidArgument("pad: rank-4 input required");
  }
  if (pad_width.size() != 4) {
    return Status::InvalidArgument("pad: pad_width must be [t, l, b, r]");
  }
  const i64 N = data.shape()[0], C = data.shape()[1];
  const i64 H = data.shape()[2], W = data.shape()[3];
  const i64 pt = pad_width[0], pl = pad_width[1];
  Tensor out(Shape{N, C, H + pt + pad_width[2], W + pl + pad_width[3]},
             data.dtype());
  for (i64 n = 0; n < N; ++n) {
    for (i64 c = 0; c < C; ++c) {
      for (i64 y = 0; y < H; ++y) {
        for (i64 x = 0; x < W; ++x) {
          out.Set4(n, c, y + pt, x + pl, data.At4(n, c, y, x));
        }
      }
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
