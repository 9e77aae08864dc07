#include "nn/kernels.hpp"

#include "support/math_utils.hpp"

namespace htvm::nn {
namespace {

// The elements of a (small parameter) tensor in the i64 value domain.
std::vector<i64> ToI64(const Tensor& t) {
  std::vector<i64> v(static_cast<size_t>(t.NumElements()));
  VisitDType(t.dtype(), [&](auto e) {
    const auto src = t.data<decltype(e)>();
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<i64>(src[i]);
  });
  return v;
}

// Walks x as `outer` blocks of params.size() channels of `inner` elements
// and writes y[i] = f(x[i], params[channel]). Values pass through i64: an
// integer widens, a float truncates toward zero, and the store narrows with
// wrap-around (or converts to float).
template <typename F>
void MapChannels(const Tensor& x, Tensor* y, i64 outer,
                 std::span<const i64> params, i64 inner, F f) {
  VisitDType(x.dtype(), [&](auto xe) {
    VisitDType(y->dtype(), [&](auto ye) {
      using X = decltype(xe);
      using Y = decltype(ye);
      const X* src = x.data<X>().data();
      Y* dst = y->data<Y>().data();
      for (i64 o = 0; o < outer; ++o) {
        for (const i64 p : params) {
          for (i64 j = 0; j < inner; ++j) {
            dst[j] = static_cast<Y>(f(static_cast<i64>(src[j]), p));
          }
          src += inner;
          dst += inner;
        }
      }
    });
  });
}

// MapChannels' walk for the requant chain's dtype pairs (i32 -> i32,
// i32 -> i8, i8 -> i8), in the element type instead of i64: f(v, p) sees an
// i8 promoted to int, and the store narrows with wrap-around. These loops
// vectorize; i64 compares and arithmetic shifts do not at baseline x86-64.
// Returns false, writing nothing, for any other pair.
template <typename P, typename F>
bool MapChannelsNarrow(const Tensor& x, Tensor* y, i64 outer,
                       std::span<const P> params, i64 inner, F f) {
  const auto run = [&](auto xe, auto ye) {
    using X = decltype(xe);
    using Y = decltype(ye);
    const X* src = x.data<X>().data();
    Y* dst = y->data<Y>().data();
    for (i64 o = 0; o < outer; ++o) {
      for (const P p : params) {  // a copy: dst may alias params
        for (i64 j = 0; j < inner; ++j) dst[j] = static_cast<Y>(f(src[j], p));
        src += inner;
        dst += inner;
      }
    }
  };
  const DType from = x.dtype(), to = y->dtype();
  if (from == DType::kInt32 && to == DType::kInt32) {
    run(i32{}, i32{});
  } else if (from == DType::kInt32 && to == DType::kInt8) {
    run(i32{}, i8{});
  } else if (from == DType::kInt8 && to == DType::kInt8) {
    run(i8{}, i8{});
  } else {
    return false;
  }
  return true;
}

// y[i] = f(x[i]) over the whole tensor.
template <typename F>
void MapElements(const Tensor& x, Tensor* y, F f) {
  const i64 none = 0;
  MapChannels(x, y, 1, {&none, 1}, x.NumElements(),
              [f](i64 v, i64) { return f(v); });
}

// A rounding right shift by s in [0, 31] in the element type:
// (v >> s) + ((v >> half) & round) with half = s - 1 and round = 1, or
// half = round = 0 for s == 0. Equals RoundingRightShift and cannot
// overflow.
struct NarrowShift {
  int s = 0, half = 0;
  i32 round = 0;
};

// y = clamp(x, lo, hi) with v < lo ? lo : (v > hi ? hi : v), which keeps
// Clamp's result when lo > hi. int8 -> int8 with int8 bounds compares bytes
// (16 lanes per SSE2 vector, against 4 for int32), other bounds that fit
// int32 compare in int32, and the rest take the i64 path.
void ClampInto(const Tensor& x, Tensor* y, i64 lo, i64 hi) {
  const auto clamp = [](auto v, auto l, auto h) {
    return v < l ? l : (v > h ? h : v);
  };
  const auto fits = [&](i64 min, i64 max) {
    return lo >= min && lo <= max && hi >= min && hi <= max;
  };
  if (x.dtype() == DType::kInt8 && y->dtype() == DType::kInt8 &&
      fits(-128, 127)) {
    const i8 l = static_cast<i8>(lo), h = static_cast<i8>(hi);
    const i8* src = x.data<i8>().data();
    i8* dst = y->data<i8>().data();
    const i64 n = x.NumElements();  // hoisted: an i8 store may alias x
    for (i64 i = 0; i < n; ++i) dst[i] = clamp(src[i], l, h);
    return;
  }
  const i32 none = 0;
  const i32 l = static_cast<i32>(lo), h = static_cast<i32>(hi);
  if (fits(INT32_MIN, INT32_MAX) &&
      MapChannelsNarrow<i32>(x, y, 1, {&none, 1}, x.NumElements(),
                             [=](i32 v, i32) { return clamp(v, l, h); })) {
    return;
  }
  MapElements(x, y, [=](i64 v) { return Clamp(v, lo, hi); });
}

// Product of dims [begin, end).
i64 DimProduct(const Shape& s, i64 begin, i64 end) {
  i64 p = 1;
  for (i64 d = begin; d < end; ++d) p *= s[d];
  return p;
}

}  // namespace

Result<Tensor> BiasAdd(const Tensor& data, const Tensor& bias, i64 axis) {
  const Shape& s = data.shape();
  if (axis < 0 || axis >= s.rank()) {
    return Status::InvalidArgument("bias_add: axis out of range");
  }
  if (bias.shape().rank() != 1 || bias.shape()[0] != s[axis]) {
    return Status::InvalidArgument("bias_add: bias length mismatch");
  }
  Tensor out(s, data.dtype());
  const i64 outer = DimProduct(s, 0, axis);
  const i64 inner = DimProduct(s, axis + 1, s.rank());
  const std::vector<i64> b64 = ToI64(bias);
  // Adding the bias modulo 2^32 keeps the low bits that the narrowing store
  // keeps from the i64 sum.
  std::vector<u32> b32(b64.size());
  for (size_t i = 0; i < b64.size(); ++i) b32[i] = static_cast<u32>(b64[i]);
  if (!MapChannelsNarrow<u32>(
          data, &out, outer, b32, inner,
          [](i32 v, u32 b) { return static_cast<u32>(v) + b; })) {
    MapChannels(data, &out, outer, b64, inner,
                [](i64 v, i64 b) { return v + b; });
  }
  return out;
}

Result<Tensor> RightShift(const Tensor& data, const Tensor& shift) {
  const Shape& s = data.shape();
  const std::vector<i64> shifts = ToI64(shift);
  const i64 n_shift = static_cast<i64>(shifts.size());
  const bool per_channel = s.rank() >= 2 && n_shift == s[1] && n_shift > 1;
  if (n_shift != 1 && !per_channel) {
    return Status::InvalidArgument(
        "right_shift: scalar or per-channel shift required");
  }
  for (const i64 v : shifts) {
    if (v < 0 || v > 31) {
      return Status::InvalidArgument("right_shift: shift out of [0,31]");
    }
  }
  Tensor out(s, data.dtype());
  // A scalar shift is one channel spanning the whole tensor.
  const i64 outer = per_channel ? s[0] : 1;
  const i64 inner =
      per_channel ? DimProduct(s, 2, s.rank()) : data.NumElements();
  std::vector<NarrowShift> narrow(shifts.size());
  for (size_t i = 0; i < shifts.size(); ++i) {
    const int sh = static_cast<int>(shifts[i]);
    narrow[i] = {sh, sh > 0 ? sh - 1 : 0, sh > 0 ? 1 : 0};
  }
  if (!MapChannelsNarrow<NarrowShift>(
          data, &out, outer, narrow, inner, [](i32 v, NarrowShift p) {
            return (v >> p.s) + ((v >> p.half) & p.round);
          })) {
    MapChannels(data, &out, outer, shifts, inner,
                [](i64 v, i64 sh) { return RoundingRightShift(v, sh); });
  }
  return out;
}

Result<Tensor> Clip(const Tensor& data, i64 a_min, i64 a_max) {
  Tensor out(data.shape(), data.dtype());
  ClampInto(data, &out, a_min, a_max);
  return out;
}

Result<Tensor> Cast(const Tensor& data, DType dtype) {
  Tensor out(data.shape(), dtype);
  i64 lo = -(i64{1} << 62), hi = (i64{1} << 62);
  switch (dtype) {
    case DType::kInt8:
    case DType::kTernary: lo = -128; hi = 127; break;
    case DType::kInt16: lo = -32768; hi = 32767; break;
    case DType::kInt32: lo = INT32_MIN; hi = INT32_MAX; break;
    case DType::kFloat32: break;
  }
  ClampInto(data, &out, lo, hi);
  return out;
}

Result<Tensor> Relu(const Tensor& data) {
  Tensor out(data.shape(), data.dtype());
  MapElements(data, &out, [](i64 v) { return std::max<i64>(0, v); });
  return out;
}

Result<Tensor> Add(const Tensor& lhs, const Tensor& rhs) {
  if (!(lhs.shape() == rhs.shape())) {
    return Status::InvalidArgument("add: shapes differ");
  }
  const DType out_t =
      (lhs.dtype() == DType::kInt8 && rhs.dtype() == DType::kInt8)
          ? DType::kInt32
          : lhs.dtype();
  Tensor out(lhs.shape(), out_t);
  const i64 n = lhs.NumElements();
  VisitDType(lhs.dtype(), [&](auto ae) {
    VisitDType(rhs.dtype(), [&](auto be) {
      VisitDType(out_t, [&](auto oe) {
        using O = decltype(oe);
        const auto a = lhs.data<decltype(ae)>();
        const auto b = rhs.data<decltype(be)>();
        O* o = out.data<O>().data();
        for (i64 i = 0; i < n; ++i) {
          o[i] = static_cast<O>(static_cast<i64>(a[i]) +
                                static_cast<i64>(b[i]));
        }
      });
    });
  });
  return out;
}

}  // namespace htvm::nn
