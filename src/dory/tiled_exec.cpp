#include "dory/tiled_exec.hpp"

#include <cstring>
#include <optional>

#include "nn/kernels.hpp"
#include "support/string_utils.hpp"

namespace htvm::dory {
namespace {

// [origin, origin + extent) is a non-empty sub-range of [0, limit).
bool InRange(i64 origin, i64 extent, i64 limit) {
  return origin >= 0 && extent > 0 && extent <= limit &&
         origin <= limit - extent;
}

// `t` holds `elems` elements of `dtype` (or ternary, when `or_ternary`).
Status CheckTensor(const Tensor* t, const char* what, DType dtype, i64 elems,
                   bool or_ternary = false) {
  if (t == nullptr) {
    return Status::InvalidArgument(StrFormat("%s required", what));
  }
  const bool dtype_ok =
      t->dtype() == dtype || (or_ternary && t->dtype() == DType::kTernary);
  if (!dtype_ok || t->NumElements() != elems) {
    return Status::InvalidArgument(
        StrFormat("%s %s%s does not match the layer (%lld elements)", what,
                  DTypeName(t->dtype()), t->shape().ToString().c_str(),
                  static_cast<long long>(elems)));
  }
  return Status::Ok();
}

// The layer geometry must be non-degenerate before any extent derived from
// it sizes a buffer.
Status CheckSpec(const AccelLayerSpec& spec) {
  const bool dims_ok = spec.c > 0 && spec.k > 0 && spec.iy > 0 &&
                       spec.ix > 0 && spec.oy > 0 && spec.ox > 0 &&
                       spec.kh > 0 && spec.kw > 0 && spec.sy > 0 &&
                       spec.sx > 0 && spec.pad_t >= 0 && spec.pad_l >= 0 &&
                       spec.pad_b >= 0 && spec.pad_r >= 0;
  if (!dims_ok) return Status::InvalidArgument("degenerate layer geometry");
  if (spec.kind == LayerKind::kDwConv2d && spec.k != spec.c) {
    return Status::InvalidArgument("depthwise layer with k != c");
  }
  const i64 channels = spec.kind == LayerKind::kAdd ? spec.c : spec.k;
  const RequantParams& rq = spec.requant;
  if (rq.per_channel() &&
      static_cast<i64>(rq.channel_shifts.size()) != channels) {
    return Status::InvalidArgument("per-channel shifts do not match the layer");
  }
  for (i64 ch = 0; ch < (rq.per_channel() ? channels : 1); ++ch) {
    if (rq.ShiftFor(ch) < 0 || rq.ShiftFor(ch) > 31) {
      return Status::InvalidArgument("requant shift outside [0, 31]");
    }
  }
  return Status::Ok();
}

// Every step stays inside the layer, and a conv step that continues a
// partial sum (first_c false) continues the output tile that is open.
Status CheckSteps(const AccelSchedule& sched) {
  const AccelLayerSpec& spec = sched.spec;
  const bool conv = spec.kind == LayerKind::kConv2d;
  const bool dw = spec.kind == LayerKind::kDwConv2d;
  const bool matmul =
      spec.kind == LayerKind::kDense || spec.kind == LayerKind::kMatmul;
  const TileStep* open = nullptr;
  for (size_t i = 0; i < sched.steps.size(); ++i) {
    const TileStep& s = sched.steps[i];
    bool ok = InRange(s.c0, s.c_t, spec.c) &&
              InRange(s.y0, s.oy_t, spec.oy);
    if (!matmul) ok = ok && InRange(s.x0, s.ox_t, spec.ox);
    if (conv || matmul) ok = ok && InRange(s.k0, s.k_t, spec.k);
    // A depthwise step owns its channels outright: no partial sums.
    if (dw) ok = ok && s.k_t == s.c_t && s.first_c && s.last_c;
    if (conv || dw) {
      // The input window of the tile lies inside the padded input.
      ok = ok &&
           (s.y0 + s.oy_t - 1) * spec.sy + spec.kh <=
               spec.iy + spec.pad_t + spec.pad_b &&
           (s.x0 + s.ox_t - 1) * spec.sx + spec.kw <=
               spec.ix + spec.pad_l + spec.pad_r;
    }
    if (conv && !s.first_c) {
      ok = ok && open != nullptr && s.k0 == open->k0 && s.k_t == open->k_t &&
           s.y0 == open->y0 && s.oy_t == open->oy_t && s.x0 == open->x0 &&
           s.ox_t == open->ox_t;
    }
    if (!ok) {
      return Status::InvalidArgument(
          StrFormat("tile step %zu lies outside the layer", i));
    }
    if (conv) open = s.last_c ? nullptr : &s;
  }
  return Status::Ok();
}

// Zero-padded copy of the input planes so tile slicing never needs bounds
// logic — the L2-side "virtual" padded tensor DORY indexes into.
Tensor PadInput(const Tensor& data, const AccelLayerSpec& spec) {
  const i64 ph = spec.iy + spec.pad_t + spec.pad_b;
  const i64 pw = spec.ix + spec.pad_l + spec.pad_r;
  Tensor padded(Shape{1, spec.c, ph, pw}, DType::kInt8);
  const i8* src = data.data<i8>().data();
  i8* dst = padded.data<i8>().data();
  for (i64 c = 0; c < spec.c; ++c) {
    for (i64 y = 0; y < spec.iy; ++y) {
      std::memcpy(dst + (c * ph + spec.pad_t + y) * pw + spec.pad_l,
                  src + (c * spec.iy + y) * spec.ix,
                  static_cast<size_t>(spec.ix));
    }
  }
  return padded;
}

// Gathers the input tile feeding output rows [y0, y0+oy_t) x [x0, x0+ox_t)
// and channels [c0, c0+c_t) from the padded input, one DMA row at a time.
Tensor GatherInTile(const Tensor& padded, const AccelLayerSpec& spec,
                    const TileStep& s) {
  const i64 ph = padded.shape()[2], pw = padded.shape()[3];
  const i64 ih = (s.oy_t - 1) * spec.sy + spec.kh;
  const i64 iw = (s.ox_t - 1) * spec.sx + spec.kw;
  Tensor tile(Shape{1, s.c_t, ih, iw}, DType::kInt8);
  const i8* src = padded.data<i8>().data() + s.y0 * spec.sy * pw +
                  s.x0 * spec.sx;
  i8* dst = tile.data<i8>().data();
  for (i64 c = 0; c < s.c_t; ++c) {
    for (i64 y = 0; y < ih; ++y) {
      std::memcpy(dst + (c * ih + y) * iw, src + ((s.c0 + c) * ph + y) * pw,
                  static_cast<size_t>(iw));
    }
  }
  return tile;
}

// Weight slice of a step: output channels [k0, k0+k_t) x input channels
// [c0, c0+c_t); for depthwise, channel c0+c is both.
Tensor SliceWeights(const Tensor& weight, const AccelLayerSpec& spec,
                    const TileStep& s, bool dw) {
  const i64 taps = spec.kh * spec.kw;
  const i64 k_t = dw ? s.c_t : s.k_t;
  const i64 k0 = dw ? s.c0 : s.k0;
  const i64 cin = dw ? 1 : spec.c;
  const i64 c_t = dw ? 1 : s.c_t;
  const i64 c0 = dw ? 0 : s.c0;
  Tensor slice(Shape{k_t, c_t, spec.kh, spec.kw}, weight.dtype());
  const i8* src = weight.data<i8>().data();
  i8* dst = slice.data<i8>().data();
  for (i64 k = 0; k < k_t; ++k) {
    std::memcpy(dst + k * c_t * taps, src + ((k0 + k) * cin + c0) * taps,
                static_cast<size_t>(c_t * taps));
  }
  return slice;
}

Result<Tensor> ExecuteConvLike(const AccelSchedule& sched, const Tensor& data,
                               const Tensor& weight, const Tensor& bias) {
  const AccelLayerSpec& spec = sched.spec;
  const bool dw = spec.kind == LayerKind::kDwConv2d;
  Tensor out(Shape{1, spec.k, spec.oy, spec.ox}, DType::kInt8);
  const Tensor padded = PadInput(data, spec);
  const i32* b = bias.data<i32>().data();
  i8* o = out.data<i8>().data();

  // One psum buffer per output tile: the output-stationary loop order puts
  // all c-tiles of one output tile consecutively (CheckSteps enforces it).
  Tensor psum;
  for (const TileStep& s : sched.steps) {
    auto partial =
        nn::Conv2d(GatherInTile(padded, spec, s),
                   SliceWeights(weight, spec, s, dw), {spec.sy, spec.sx},
                   {0, 0, 0, 0}, dw ? s.c_t : 1);
    if (!partial.ok()) return partial.status();
    HTVM_CHECK(partial->shape()[2] == s.oy_t && partial->shape()[3] == s.ox_t);
    if (s.first_c) {
      psum = std::move(partial.value());
    } else {
      // int32 partial sums add with wrap-around, like the accelerator's.
      const auto p = partial->data<i32>();
      const auto acc = psum.data<i32>();
      for (size_t i = 0; i < acc.size(); ++i) {
        acc[i] = static_cast<i32>(static_cast<u32>(acc[i]) +
                                  static_cast<u32>(p[i]));
      }
    }
    if (!s.last_c) continue;
    // Bias + requant + scatter (the accelerator output stage). A tile that
    // spans whole output rows is one contiguous run per channel.
    const bool whole = s.ox_t == spec.ox;
    const i64 rows = whole ? 1 : s.oy_t;
    const i64 len = whole ? s.oy_t * s.ox_t : s.ox_t;
    const i64 kbase = dw ? s.c0 : s.k0;
    const i32* acc = psum.data<i32>().data();
    for (i64 k = 0; k < s.k_t; ++k) {
      const i64 ch = kbase + k;
      for (i64 y = 0; y < rows; ++y) {
        RequantizeRow(acc + (k * s.oy_t + y) * s.ox_t, len, b[ch],
                      spec.requant.ShiftFor(ch), spec.requant.relu,
                      o + (ch * spec.oy + s.y0 + y) * spec.ox + s.x0);
      }
    }
  }
  return out;
}

// The [rows, cols] block at (r0, c0) of a row-major [*, stride] matrix.
Tensor SliceRows(const Tensor& m, i64 stride, i64 r0, i64 rows, i64 c0,
                 i64 cols) {
  Tensor slice(Shape{rows, cols}, m.dtype());
  const i8* src = m.data<i8>().data() + r0 * stride + c0;
  i8* dst = slice.data<i8>().data();
  for (i64 r = 0; r < rows; ++r) {
    std::memcpy(dst + r * cols, src + r * stride, static_cast<size_t>(cols));
  }
  return slice;
}

Result<Tensor> ExecuteMatmul(const AccelSchedule& sched, const Tensor& data,
                             const Tensor& weight, const Tensor& bias) {
  // data [M, K] x weight [N, K] -> int8 [M, N]; (k, y) output tiles with
  // the c reduction innermost. A dense layer is the one-row case: its spec
  // keeps oy = 1, so every step has y0 = 0 and oy_t = 1. Each step's dot
  // products run on nn::Dense; c-tiles add in wrapping u32 like the
  // accelerator's int32 partial sums.
  const AccelLayerSpec& spec = sched.spec;
  Tensor out(Shape{spec.oy, spec.k}, DType::kInt8);
  std::vector<i32> psum(static_cast<size_t>(spec.k * spec.oy), 0);
  const i32* b = bias.data<i32>().data();
  i8* o = out.data<i8>().data();
  for (const TileStep& s : sched.steps) {
    auto partial =
        nn::Dense(SliceRows(data, spec.c, s.y0, s.oy_t, s.c0, s.c_t),
                  SliceRows(weight, spec.c, s.k0, s.k_t, s.c0, s.c_t));
    if (!partial.ok()) return partial.status();
    const i32* p = partial->data<i32>().data();
    for (i64 y = 0; y < s.oy_t; ++y) {
      i32* prow = psum.data() + (s.y0 + y) * spec.k + s.k0;
      for (i64 k = 0; k < s.k_t; ++k) {
        const i32 v = p[y * s.k_t + k];
        prow[k] = s.first_c ? v
                            : static_cast<i32>(static_cast<u32>(prow[k]) +
                                               static_cast<u32>(v));
      }
      if (!s.last_c) continue;
      // Every output feature is its own channel: a one-element row.
      for (i64 k = s.k0; k < s.k0 + s.k_t; ++k) {
        const i64 at = (s.y0 + y) * spec.k + k;
        RequantizeRow(psum.data() + at, 1, b[k], spec.requant.ShiftFor(k),
                      spec.requant.relu, o + at);
      }
    }
  }
  return out;
}

Result<Tensor> ExecuteAdd(const AccelSchedule& sched, const Tensor& lhs,
                          const Tensor& rhs) {
  const AccelLayerSpec& spec = sched.spec;
  Tensor out(lhs.shape(), DType::kInt8);
  const i8* l = lhs.data<i8>().data();
  const i8* r = rhs.data<i8>().data();
  i8* o = out.data<i8>().data();
  // Channel/spatial tiles partition the tensor; order is irrelevant for an
  // elementwise op, so walk steps and compute each region row by row (one
  // run per channel when the tile spans whole rows). int8 sums fit int32.
  std::vector<i32> sum(static_cast<size_t>(spec.oy * spec.ox));
  for (const TileStep& s : sched.steps) {
    const bool whole = s.ox_t == spec.ox;
    const i64 rows = whole ? 1 : s.oy_t;
    const i64 len = whole ? s.oy_t * s.ox_t : s.ox_t;
    for (i64 c = s.c0; c < s.c0 + s.c_t; ++c) {
      for (i64 y = s.y0; y < s.y0 + rows; ++y) {
        const i64 row = (c * spec.oy + y) * spec.ox + s.x0;
        for (i64 x = 0; x < len; ++x) sum[x] = l[row + x] + r[row + x];
        RequantizeRow(sum.data(), len, 0, spec.requant.ShiftFor(c),
                      spec.requant.relu, o + row);
      }
    }
  }
  return out;
}

// Checks the tensors against the layer before any of them is read: conv
// data [1, c, iy, ix] and weight [k, c or 1, kh, kw]; dense/matmul data
// [oy, c] and weight [k, c]; add operands of c * oy * ox; bias [k] int32.
Status CheckOperands(const AccelSchedule& schedule,
                     std::span<const Tensor> inputs, const Tensor* weight,
                     const Tensor* bias) {
  const AccelLayerSpec& spec = schedule.spec;
  HTVM_RETURN_IF_ERROR(CheckSpec(spec));
  HTVM_RETURN_IF_ERROR(CheckSteps(schedule));
  const size_t arity = spec.kind == LayerKind::kAdd ? 2 : 1;
  if (inputs.size() != arity) {
    return Status::InvalidArgument(StrFormat(
        "%s: %zu input(s) required", LayerKindName(spec.kind), arity));
  }
  if (spec.kind == LayerKind::kAdd) {
    for (const Tensor& t : inputs) {
      HTVM_RETURN_IF_ERROR(CheckTensor(&t, "add input", DType::kInt8,
                                       spec.c * spec.oy * spec.ox));
    }
    return Status::Ok();
  }
  const bool conv = spec.kind == LayerKind::kConv2d ||
                    spec.kind == LayerKind::kDwConv2d;
  const i64 cin = spec.kind == LayerKind::kDwConv2d ? 1 : spec.c;
  const Shape data_shape = conv ? Shape{1, spec.c, spec.iy, spec.ix}
                                : Shape{spec.oy, spec.c};
  const Shape weight_shape =
      conv ? Shape{spec.k, cin, spec.kh, spec.kw} : Shape{spec.k, spec.c};
  HTVM_RETURN_IF_ERROR(CheckTensor(&inputs[0], "data", DType::kInt8,
                                   data_shape.NumElements()));
  HTVM_RETURN_IF_ERROR(CheckTensor(weight, "weight", DType::kInt8,
                                   weight_shape.NumElements(), true));
  // A conv reads NCHW planes, so its shapes must match, not only counts.
  if (conv && !(inputs[0].shape() == data_shape &&
                weight->shape() == weight_shape)) {
    return Status::InvalidArgument(StrFormat(
        "%s: data %s / weight %s do not match the layer",
        LayerKindName(spec.kind), inputs[0].shape().ToString().c_str(),
        weight->shape().ToString().c_str()));
  }
  return CheckTensor(bias, "bias", DType::kInt32, spec.k);
}

}  // namespace

Result<Tensor> ExecuteTiled(const AccelSchedule& schedule,
                            std::span<const Tensor> inputs,
                            const Tensor* weight, const Tensor* bias) {
  HTVM_RETURN_IF_ERROR(CheckOperands(schedule, inputs, weight, bias));
  std::optional<Tensor> clamped;
  if (schedule.target == AccelTarget::kAnalog) {
    clamped = ClampTo7Bit(inputs[0]);
  }
  const Tensor& data = clamped ? *clamped : inputs[0];
  switch (schedule.spec.kind) {
    case LayerKind::kConv2d:
    case LayerKind::kDwConv2d:
      return ExecuteConvLike(schedule, data, *weight, *bias);
    case LayerKind::kAdd:
      return ExecuteAdd(schedule, data, inputs[1]);
    case LayerKind::kDense:
    case LayerKind::kMatmul:
      return ExecuteMatmul(schedule, data, *weight, *bias);
  }
  return Status::Internal("bad layer kind");
}

}  // namespace htvm::dory
