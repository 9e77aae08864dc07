#include "dory/tiled_exec.hpp"

#include <algorithm>

#include "nn/kernels.hpp"

namespace htvm::dory {
namespace {

// Zero-padded copy of the input plane so tile slicing never needs bounds
// logic — the L2-side "virtual" padded tensor DORY indexes into.
Tensor PadInput(const Tensor& data, const AccelLayerSpec& spec) {
  const i64 C = spec.c, H = spec.iy, W = spec.ix;
  Tensor padded(Shape{1, C, H + spec.pad_t + spec.pad_b,
                      W + spec.pad_l + spec.pad_r},
                DType::kInt8);
  for (i64 c = 0; c < C; ++c) {
    for (i64 y = 0; y < H; ++y) {
      for (i64 x = 0; x < W; ++x) {
        padded.Set4(0, c, y + spec.pad_t, x + spec.pad_l,
                    data.At4(0, c, y, x));
      }
    }
  }
  return padded;
}

// Gathers the input tile feeding output rows [y0, y0+oy_t) x [x0, x0+ox_t)
// and channels [c0, c0+c_t) from the padded input.
Tensor GatherInTile(const Tensor& padded, const AccelLayerSpec& spec,
                    const TileStep& s) {
  const i64 ih = (s.oy_t - 1) * spec.sy + spec.kh;
  const i64 iw = (s.ox_t - 1) * spec.sx + spec.kw;
  const i64 oy0 = s.y0 * spec.sy;
  const i64 ox0 = s.x0 * spec.sx;
  Tensor tile(Shape{1, s.c_t, ih, iw}, DType::kInt8);
  for (i64 c = 0; c < s.c_t; ++c) {
    for (i64 y = 0; y < ih; ++y) {
      for (i64 x = 0; x < iw; ++x) {
        tile.Set4(0, c, y, x, padded.At4(0, s.c0 + c, oy0 + y, ox0 + x));
      }
    }
  }
  return tile;
}

Result<Tensor> ExecuteConvLike(const AccelSchedule& sched, const Tensor& data,
                               const Tensor& weight, const Tensor& bias) {
  const AccelLayerSpec& spec = sched.spec;
  const bool dw = spec.kind == LayerKind::kDwConv2d;
  Tensor out(Shape{1, spec.k, spec.oy, spec.ox}, DType::kInt8);
  const Tensor padded = PadInput(data, spec);

  // One psum buffer per output tile; keyed by the current (k0, y0, x0) —
  // the output-stationary loop order guarantees all c-tiles of one output
  // tile are consecutive.
  Tensor psum;
  for (const TileStep& s : sched.steps) {
    if (s.first_c) {
      psum = Tensor::Zeros(Shape{1, s.k_t, s.oy_t, s.ox_t}, DType::kInt32);
    }
    // Weight slice: output channels [k0, k0+k_t), input channels
    // [c0, c0+c_t) (for depthwise, channel c is both).
    Tensor in_tile = GatherInTile(padded, spec, s);
    Tensor w_tile;
    if (dw) {
      w_tile = Tensor(Shape{s.c_t, 1, spec.kh, spec.kw}, weight.dtype());
      for (i64 c = 0; c < s.c_t; ++c) {
        for (i64 fy = 0; fy < spec.kh; ++fy) {
          for (i64 fx = 0; fx < spec.kw; ++fx) {
            w_tile.Set4(c, 0, fy, fx, weight.At4(s.c0 + c, 0, fy, fx));
          }
        }
      }
    } else {
      w_tile = Tensor(Shape{s.k_t, s.c_t, spec.kh, spec.kw}, weight.dtype());
      for (i64 k = 0; k < s.k_t; ++k) {
        for (i64 c = 0; c < s.c_t; ++c) {
          for (i64 fy = 0; fy < spec.kh; ++fy) {
            for (i64 fx = 0; fx < spec.kw; ++fx) {
              w_tile.Set4(k, c, fy, fx,
                          weight.At4(s.k0 + k, s.c0 + c, fy, fx));
            }
          }
        }
      }
    }
    auto partial = nn::Conv2d(in_tile, w_tile, {spec.sy, spec.sx},
                              {0, 0, 0, 0}, dw ? s.c_t : 1);
    if (!partial.ok()) return partial.status();
    const Tensor& p = partial.value();
    HTVM_CHECK(p.shape()[2] == s.oy_t && p.shape()[3] == s.ox_t);
    for (i64 k = 0; k < s.k_t; ++k) {
      for (i64 y = 0; y < s.oy_t; ++y) {
        for (i64 x = 0; x < s.ox_t; ++x) {
          psum.Set4(0, k, y, x, psum.At4(0, k, y, x) + p.At4(0, k, y, x));
        }
      }
    }
    if (s.last_c) {
      // Bias + requant + scatter (the accelerator output stage).
      const i64 kbase = dw ? s.c0 : s.k0;
      for (i64 k = 0; k < s.k_t; ++k) {
        for (i64 y = 0; y < s.oy_t; ++y) {
          for (i64 x = 0; x < s.ox_t; ++x) {
            const i64 acc = psum.At4(0, k, y, x) + bias.GetFlat(kbase + k);
            out.Set4(0, kbase + k, s.y0 + y, s.x0 + x,
                     RequantizeValueAt(acc, spec.requant, kbase + k));
          }
        }
      }
    }
  }
  return out;
}

Result<Tensor> ExecuteMatmul(const AccelSchedule& sched, const Tensor& data,
                             const Tensor& weight, const Tensor& bias) {
  // data [M, K] x weight [N, K] -> int8 [M, N]; (k, y) output tiles with
  // the c reduction innermost. A dense layer is the one-row case: its spec
  // keeps oy = 1, so every step has y0 = 0 and oy_t = 1.
  const AccelLayerSpec& spec = sched.spec;
  Tensor out(Shape{spec.oy, spec.k}, DType::kInt8);
  std::vector<i64> psum(static_cast<size_t>(spec.k * spec.oy), 0);
  for (const TileStep& s : sched.steps) {
    if (s.first_c) {
      for (i64 y = 0; y < s.oy_t; ++y) {
        for (i64 k = 0; k < s.k_t; ++k) {
          psum[static_cast<size_t>((s.y0 + y) * spec.k + s.k0 + k)] = 0;
        }
      }
    }
    for (i64 y = 0; y < s.oy_t; ++y) {
      for (i64 k = 0; k < s.k_t; ++k) {
        i64 acc = 0;
        for (i64 c = 0; c < s.c_t; ++c) {
          acc += data.GetFlat((s.y0 + y) * spec.c + s.c0 + c) *
                 weight.GetFlat((s.k0 + k) * spec.c + s.c0 + c);
        }
        psum[static_cast<size_t>((s.y0 + y) * spec.k + s.k0 + k)] += acc;
      }
    }
    if (s.last_c) {
      for (i64 y = 0; y < s.oy_t; ++y) {
        for (i64 k = 0; k < s.k_t; ++k) {
          const i64 acc =
              psum[static_cast<size_t>((s.y0 + y) * spec.k + s.k0 + k)] +
              bias.GetFlat(s.k0 + k);
          out.SetFlat((s.y0 + y) * spec.k + s.k0 + k,
                      RequantizeValueAt(acc, spec.requant, s.k0 + k));
        }
      }
    }
  }
  return out;
}

Result<Tensor> ExecuteAdd(const AccelSchedule& sched, const Tensor& lhs,
                          const Tensor& rhs) {
  const AccelLayerSpec& spec = sched.spec;
  Tensor out(lhs.shape(), DType::kInt8);
  // Channel/spatial tiles partition the tensor; order is irrelevant for an
  // elementwise op, so walk steps and compute each region.
  const i64 plane = spec.oy * spec.ox;
  for (const TileStep& s : sched.steps) {
    for (i64 c = 0; c < s.c_t; ++c) {
      for (i64 y = 0; y < s.oy_t; ++y) {
        for (i64 x = 0; x < s.ox_t; ++x) {
          const i64 idx =
              (s.c0 + c) * plane + (s.y0 + y) * spec.ox + (s.x0 + x);
          const i64 acc = lhs.GetFlat(idx) + rhs.GetFlat(idx);
          out.SetFlat(idx, RequantizeValueAt(acc, spec.requant, s.c0 + c));
        }
      }
    }
  }
  return out;
}

}  // namespace

Result<Tensor> ExecuteTiled(const AccelSchedule& schedule,
                            std::span<const Tensor> inputs,
                            const Tensor* weight, const Tensor* bias) {
  const AccelLayerSpec& spec = schedule.spec;
  if (inputs.empty()) return Status::InvalidArgument("no inputs");

  Tensor data = inputs[0];
  if (schedule.target == AccelTarget::kAnalog) {
    data = ClampTo7Bit(data);
  }

  switch (spec.kind) {
    case LayerKind::kConv2d:
    case LayerKind::kDwConv2d: {
      if (weight == nullptr || bias == nullptr) {
        return Status::InvalidArgument("conv: weight/bias required");
      }
      return ExecuteConvLike(schedule, data, *weight, *bias);
    }
    case LayerKind::kAdd: {
      if (inputs.size() != 2) {
        return Status::InvalidArgument("add: two inputs required");
      }
      return ExecuteAdd(schedule, data, inputs[1]);
    }
    case LayerKind::kDense:
    case LayerKind::kMatmul: {
      if (weight == nullptr || bias == nullptr) {
        return Status::InvalidArgument(std::string(LayerKindName(spec.kind)) +
                                       ": weight/bias required");
      }
      return ExecuteMatmul(schedule, data, *weight, *bias);
    }
  }
  return Status::Internal("bad layer kind");
}

}  // namespace htvm::dory
