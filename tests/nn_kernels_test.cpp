#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <limits>

#include "ir/op.hpp"
#include "nn/kernels.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "tensor/quantize.hpp"

namespace htvm::nn {
namespace {

TEST(Conv2d, IdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input as int32.
  Tensor data = Tensor::FromInt8(Shape{1, 1, 2, 2}, {1, -2, 3, 4});
  Tensor w = Tensor::FromInt8(Shape{1, 1, 1, 1}, {1});
  auto out = Conv2d(data, w, {1, 1}, {0, 0, 0, 0}, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->dtype(), DType::kInt32);
  EXPECT_EQ(out->At4(0, 0, 0, 0), 1);
  EXPECT_EQ(out->At4(0, 0, 0, 1), -2);
}

TEST(Conv2d, HandComputed3x3) {
  // All-ones 3x3 kernel on a constant-1 input with zero padding counts the
  // in-bounds neighbours.
  Tensor data = Tensor::FromInt8(Shape{1, 1, 3, 3},
                                 {1, 1, 1, 1, 1, 1, 1, 1, 1});
  Tensor w = Tensor::FromInt8(Shape{1, 1, 3, 3}, {1, 1, 1, 1, 1, 1, 1, 1, 1});
  auto out = Conv2d(data, w, {1, 1}, {1, 1, 1, 1}, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At4(0, 0, 1, 1), 9);  // center
  EXPECT_EQ(out->At4(0, 0, 0, 0), 4);  // corner
  EXPECT_EQ(out->At4(0, 0, 0, 1), 6);  // edge
}

TEST(Conv2d, StrideTwo) {
  Tensor data = Tensor::FromInt8(Shape{1, 1, 4, 4},
                                 {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                  13, 14, 15});
  Tensor w = Tensor::FromInt8(Shape{1, 1, 1, 1}, {2});
  auto out = Conv2d(data, w, {2, 2}, {0, 0, 0, 0}, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 1, 2, 2}));
  EXPECT_EQ(out->At4(0, 0, 0, 0), 0);
  EXPECT_EQ(out->At4(0, 0, 0, 1), 4);
  EXPECT_EQ(out->At4(0, 0, 1, 0), 16);
  EXPECT_EQ(out->At4(0, 0, 1, 1), 20);
}

TEST(Conv2d, DepthwiseKeepsChannelsSeparate) {
  // Two channels, weights 1 and 10: outputs must not mix.
  Tensor data = Tensor::FromInt8(Shape{1, 2, 1, 1}, {3, 5});
  Tensor w = Tensor::FromInt8(Shape{2, 1, 1, 1}, {1, 10});
  auto out = Conv2d(data, w, {1, 1}, {0, 0, 0, 0}, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At4(0, 0, 0, 0), 3);
  EXPECT_EQ(out->At4(0, 1, 0, 0), 50);
}

TEST(Conv2d, TernaryWeightsWork) {
  Tensor data = Tensor::FromInt8(Shape{1, 1, 1, 3}, {10, 20, 30});
  Tensor w(Shape{1, 1, 1, 3}, DType::kTernary);
  w.SetFlat(0, 1);
  w.SetFlat(1, 0);
  w.SetFlat(2, -1);
  auto out = Conv2d(data, w, {1, 1}, {0, 0, 0, 0}, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At4(0, 0, 0, 0), -20);
}

TEST(Conv2d, GroupedMatchesManualSplit) {
  // groups=2 conv equals two independent convs on channel halves.
  Rng rng(17);
  Tensor data = Tensor::Random(Shape{1, 4, 5, 5}, DType::kInt8, rng);
  Tensor w = Tensor::Random(Shape{6, 2, 3, 3}, DType::kInt8, rng);
  auto grouped = Conv2d(data, w, {1, 1}, {1, 1, 1, 1}, 2);
  ASSERT_TRUE(grouped.ok());

  // Manual split.
  Tensor d0(Shape{1, 2, 5, 5}, DType::kInt8), d1(Shape{1, 2, 5, 5},
                                                 DType::kInt8);
  for (i64 c = 0; c < 2; ++c) {
    for (i64 y = 0; y < 5; ++y) {
      for (i64 x = 0; x < 5; ++x) {
        d0.Set4(0, c, y, x, data.At4(0, c, y, x));
        d1.Set4(0, c, y, x, data.At4(0, c + 2, y, x));
      }
    }
  }
  Tensor w0(Shape{3, 2, 3, 3}, DType::kInt8), w1(Shape{3, 2, 3, 3},
                                                 DType::kInt8);
  for (i64 i = 0; i < w0.NumElements(); ++i) {
    w0.SetFlat(i, w.GetFlat(i));
    w1.SetFlat(i, w.GetFlat(i + w0.NumElements()));
  }
  auto g0 = Conv2d(d0, w0, {1, 1}, {1, 1, 1, 1}, 1);
  auto g1 = Conv2d(d1, w1, {1, 1}, {1, 1, 1, 1}, 1);
  ASSERT_TRUE(g0.ok() && g1.ok());
  for (i64 k = 0; k < 3; ++k) {
    for (i64 y = 0; y < 5; ++y) {
      for (i64 x = 0; x < 5; ++x) {
        EXPECT_EQ(grouped->At4(0, k, y, x), g0->At4(0, k, y, x));
        EXPECT_EQ(grouped->At4(0, k + 3, y, x), g1->At4(0, k, y, x));
      }
    }
  }
}

TEST(Dense, HandComputed) {
  Tensor data = Tensor::FromInt8(Shape{1, 3}, {1, 2, 3});
  Tensor w = Tensor::FromInt8(Shape{2, 3}, {1, 0, -1, 2, 2, 2});
  auto out = Dense(data, w);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetFlat(0), -2);
  EXPECT_EQ(out->GetFlat(1), 12);
}

TEST(Dense, MatchesConv1x1) {
  // dense(x, W) == conv2d over a 1x1 spatial map with C=I channels.
  Rng rng(3);
  Tensor x = Tensor::Random(Shape{1, 32}, DType::kInt8, rng);
  Tensor w = Tensor::Random(Shape{8, 32}, DType::kInt8, rng);
  auto d = Dense(x, w);
  ASSERT_TRUE(d.ok());
  auto conv = Conv2d(x.Reshaped(Shape{1, 32, 1, 1}),
                     w.Reshaped(Shape{8, 32, 1, 1}), {1, 1}, {0, 0, 0, 0}, 1);
  ASSERT_TRUE(conv.ok());
  for (i64 k = 0; k < 8; ++k) {
    EXPECT_EQ(d->GetFlat(k), conv->At4(0, k, 0, 0));
  }
}

TEST(Dense, ChecksDTypesLikeConv2d) {
  Tensor data = Tensor::FromInt8(Shape{1, 3}, {10, 20, 30});
  Tensor ternary(Shape{1, 3}, DType::kTernary);
  ternary.SetFlat(0, 1);
  ternary.SetFlat(2, -1);
  auto out = Dense(data, ternary);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->GetFlat(0), -20);

  const Tensor wide_data(Shape{1, 3}, DType::kInt32);
  auto bad_data = Dense(wide_data, Tensor::FromInt8(Shape{1, 3}, {1, 1, 1}));
  ASSERT_FALSE(bad_data.ok());
  EXPECT_EQ(bad_data.status().code(), StatusCode::kInvalidArgument);

  const Tensor wide_weight(Shape{2, 3}, DType::kInt16);
  auto bad_weight = Dense(data, wide_weight);
  ASSERT_FALSE(bad_weight.ok());
  EXPECT_EQ(bad_weight.status().code(), StatusCode::kInvalidArgument);
}

TEST(BiasAdd, PerChannelAxis1) {
  Tensor data = Tensor::FromInt32(Shape{1, 2, 1, 2}, {1, 2, 3, 4});
  Tensor bias = Tensor::FromInt32(Shape{2}, {10, 20});
  auto out = BiasAdd(data, bias, 1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetFlat(0), 11);
  EXPECT_EQ(out->GetFlat(1), 12);
  EXPECT_EQ(out->GetFlat(2), 23);
  EXPECT_EQ(out->GetFlat(3), 24);
}

TEST(Elementwise, RightShiftClipCastChain) {
  Tensor acc = Tensor::FromInt32(Shape{3}, {1000, -1000, 8});
  auto shifted =
      RightShift(acc, Tensor::FromInt32(Shape{1}, {3}));
  ASSERT_TRUE(shifted.ok());
  EXPECT_EQ(shifted->GetFlat(0), 125);
  auto clipped = Clip(*shifted, -128, 127);
  ASSERT_TRUE(clipped.ok());
  EXPECT_EQ(clipped->GetFlat(1), -125);
  auto cast = Cast(*clipped, DType::kInt8);
  ASSERT_TRUE(cast.ok());
  EXPECT_EQ(cast->dtype(), DType::kInt8);
}

TEST(Elementwise, AddPromotesAndSums) {
  Tensor a = Tensor::FromInt8(Shape{2}, {100, -100});
  Tensor b = Tensor::FromInt8(Shape{2}, {100, -100});
  auto out = Add(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->dtype(), DType::kInt32);
  EXPECT_EQ(out->GetFlat(0), 200);  // no int8 wraparound
  EXPECT_EQ(out->GetFlat(1), -200);
}

// ---------------------------------------------------------------------------
// Differential test: the typed-span kernels against per-element references
// that read and write every value through GetFlat/SetFlat in the i64 domain.

constexpr DType kAllDTypes[] = {DType::kInt8, DType::kTernary, DType::kInt16,
                                DType::kInt32, DType::kFloat32};

// Values spanning each dtype's range, extremes included; float values carry
// fractions so the truncation toward zero is exercised.
Tensor RandomOf(const Shape& shape, DType dtype, Rng& rng) {
  Tensor t(shape, dtype);
  for (i64 i = 0; i < t.NumElements(); ++i) {
    switch (dtype) {
      case DType::kInt8:
        t.SetFlat(i, i % 7 == 0 ? -128 : rng.UniformInt8());
        break;
      case DType::kTernary: t.SetFlat(i, rng.Ternary()); break;
      case DType::kInt16: t.SetFlat(i, rng.UniformInt(-32768, 32767)); break;
      case DType::kInt32:
        t.SetFlat(i, i % 5 == 0 ? (i % 2 ? INT32_MAX : INT32_MIN)
                                : rng.UniformInt(-70000, 70000));
        break;
      case DType::kFloat32:
        t.data<float>()[static_cast<size_t>(i)] =
            static_cast<float>((rng.UniformDouble() * 2.0 - 1.0) * 300.0);
        break;
    }
  }
  return t;
}

// Conv2d's per-output-element loop order (n, k, oy, ox, c, fy, fx) with an
// i64 accumulator narrowed to int32 at the end.
Tensor NaiveConv2d(const Tensor& data, const Tensor& weight, i64 sy, i64 sx,
                   const std::vector<i64>& pad, i64 groups) {
  const i64 N = data.shape()[0], H = data.shape()[2], W = data.shape()[3];
  const i64 K = weight.shape()[0], Cg = weight.shape()[1];
  const i64 kh = weight.shape()[2], kw = weight.shape()[3];
  const i64 oh = (H + pad[0] + pad[2] - kh) / sy + 1;
  const i64 ow = (W + pad[1] + pad[3] - kw) / sx + 1;
  Tensor out(Shape{N, K, oh, ow}, DType::kInt32);
  for (i64 n = 0; n < N; ++n) {
    for (i64 k = 0; k < K; ++k) {
      const i64 g = k / (K / groups);
      for (i64 oy = 0; oy < oh; ++oy) {
        for (i64 ox = 0; ox < ow; ++ox) {
          i64 acc = 0;
          for (i64 c = 0; c < Cg; ++c) {
            for (i64 fy = 0; fy < kh; ++fy) {
              const i64 iy = oy * sy + fy - pad[0];
              if (iy < 0 || iy >= H) continue;
              for (i64 fx = 0; fx < kw; ++fx) {
                const i64 ix = ox * sx + fx - pad[1];
                if (ix < 0 || ix >= W) continue;
                acc += data.At4(n, g * Cg + c, iy, ix) *
                       weight.At4(k, c, fy, fx);
              }
            }
          }
          out.Set4(n, k, oy, ox, static_cast<i32>(acc));
        }
      }
    }
  }
  return out;
}

// out[i] = f(i, in[i]) through the flat i64 accessors.
template <typename F>
Tensor NaiveMap(const Tensor& in, DType out_t, F f) {
  Tensor out(in.shape(), out_t);
  for (i64 i = 0; i < in.NumElements(); ++i) out.SetFlat(i, f(i, in.GetFlat(i)));
  return out;
}

i64 ChannelOf(const Shape& s, i64 axis, i64 flat) {
  i64 inner = 1;
  for (i64 d = axis + 1; d < s.rank(); ++d) inner *= s[d];
  return (flat / inner) % s[axis];
}

TEST(KernelDifferential, Conv2dMatchesNaiveLoop) {
  Rng rng(2024);
  const std::pair<i64, i64> kernels[] = {{1, 1}, {3, 3}, {3, 1}, {5, 5}};
  int cases = 0;
  for (const auto& [kh, kw] : kernels) {
    for (const i64 stride : {1, 2}) {
      for (const i64 groups : {i64{1}, i64{2}, i64{0}}) {  // 0: depthwise
        for (const DType wt : {DType::kInt8, DType::kTernary}) {
          const i64 C = 2 * rng.UniformInt(1, 4);
          const i64 g = groups == 0 ? C : groups;
          const i64 K = g * rng.UniformInt(1, 3);
          const std::vector<i64> pad = {
              rng.UniformInt(0, 2), rng.UniformInt(0, 2),
              rng.UniformInt(0, 2), rng.UniformInt(0, 2)};
          const i64 H = rng.UniformInt(5, 11), W = rng.UniformInt(5, 11);
          const Tensor data = RandomOf(Shape{2, C, H, W}, DType::kInt8, rng);
          const Tensor w = RandomOf(Shape{K, C / g, kh, kw}, wt, rng);
          auto got = Conv2d(data, w, {stride, stride}, pad, g);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_TRUE(
              got->SameAs(NaiveConv2d(data, w, stride, stride, pad, g)))
              << "kernel " << kh << "x" << kw << " stride " << stride
              << " groups " << g << " " << DTypeName(wt);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 48);
}

TEST(KernelDifferential, Conv2dWrapsLikeNarrowedInt64Sum) {
  // 131073 * (-128 * -128) = 2147500032 overflows int32; the output keeps
  // its low 32 bits, exactly as narrowing the i64 sum did. K = 1 runs the
  // direct tap loop; K = 5 runs the GEMM, whose 131073-term dot products
  // span three i32 chunks, through both its 4-channel pass and the
  // remainder row.
  const i64 C = 131073;
  const Tensor data = Tensor::FromInt8(
      Shape{1, C, 1, 1}, std::vector<i8>(static_cast<size_t>(C), -128));
  for (const i64 K : {1, 5}) {
    const Tensor w = Tensor::FromInt8(
        Shape{K, C, 1, 1}, std::vector<i8>(static_cast<size_t>(K * C), -128));
    auto got = Conv2d(data, w, {1, 1}, {0, 0, 0, 0}, 1);
    ASSERT_TRUE(got.ok());
    for (i64 k = 0; k < K; ++k) {
      EXPECT_EQ(got->data<i32>()[static_cast<size_t>(k)],
                static_cast<i32>(i64{2147500032}))
          << "K " << K << " k " << k;
    }
    EXPECT_TRUE(got->SameAs(NaiveConv2d(data, w, 1, 1, {0, 0, 0, 0}, 1)));
  }
}

TEST(KernelDifferential, Conv2dGemmShapesMatchNaiveLoop) {
  // Shapes aimed at the im2col GEMM: K % 4 of 1, 2 and 3; planes larger
  // than one 64-pixel panel and not a multiple of it; the DS-CNN 1 -> 64
  // 7x5 stride-2 stem; grouped convs with 2 output channels per group (GEMM)
  // beside depthwise ones (direct loop).
  struct Case {
    i64 C, K, H, W, kh, kw, stride, groups;
    std::vector<i64> pad;
  };
  const Case cases[] = {
      {3, 5, 6, 7, 3, 3, 1, 1, {1, 1, 1, 1}},     // K % 4 == 1
      {4, 6, 7, 5, 3, 3, 2, 1, {0, 1, 2, 0}},     // K % 4 == 2
      {5, 7, 6, 6, 1, 1, 1, 1, {0, 0, 0, 0}},     // K % 4 == 3
      {3, 4, 9, 9, 3, 3, 1, 1, {1, 1, 1, 1}},     // 81 pixels
      {2, 8, 48, 48, 3, 3, 1, 1, {1, 1, 1, 1}},   // 2304 pixels
      {1, 64, 49, 10, 7, 5, 2, 1, {3, 1, 3, 2}},  // stem, 25x5 pixels
      {6, 6, 9, 9, 3, 3, 1, 3, {1, 1, 1, 1}},     // 2 in, 2 out per group
      {6, 6, 9, 9, 3, 3, 2, 6, {1, 1, 1, 1}},     // depthwise
  };
  Rng rng(19);
  for (const Case& c : cases) {
    for (const DType wt : {DType::kInt8, DType::kTernary}) {
      const Tensor data =
          RandomOf(Shape{2, c.C, c.H, c.W}, DType::kInt8, rng);
      const Tensor w =
          RandomOf(Shape{c.K, c.C / c.groups, c.kh, c.kw}, wt, rng);
      auto got = Conv2d(data, w, {c.stride, c.stride}, c.pad, c.groups);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got->SameAs(
          NaiveConv2d(data, w, c.stride, c.stride, c.pad, c.groups)))
          << "C " << c.C << " K " << c.K << " " << c.H << "x" << c.W
          << " groups " << c.groups << " " << DTypeName(wt);
    }
  }
}

TEST(KernelDifferential, Conv2dShortPaddingFormsAndBadPadding) {
  Rng rng(20);
  const Tensor data = RandomOf(Shape{1, 4, 7, 7}, DType::kInt8, rng);
  const Tensor w = RandomOf(Shape{8, 4, 3, 3}, DType::kInt8, rng);
  auto full = Conv2d(data, w, {1, 1}, {1, 2, 1, 2}, 1);
  auto pair = Conv2d(data, w, {1, 1}, {1, 2}, 1);
  auto one = Conv2d(data, w, {1, 1}, {1}, 1);
  auto ones = Conv2d(data, w, {1, 1}, {1, 1, 1, 1}, 1);
  ASSERT_TRUE(full.ok() && pair.ok() && one.ok() && ones.ok());
  EXPECT_TRUE(pair->SameAs(*full));
  EXPECT_TRUE(one->SameAs(*ones));
  for (const std::vector<i64>& bad :
       {std::vector<i64>{-1, 0, 0, 0}, std::vector<i64>{0, -1},
        std::vector<i64>{1, 1, 1}}) {
    auto got = Conv2d(data, w, {1, 1}, bad, 1);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(KernelDifferential, WindowLargerThanPaddedInputLeavesNoOutput) {
  // A 3-row window over a 1-row input padded to 2 rows has no output row
  // at any stride. One row at stride >= 2 (the negative quotient truncated
  // toward zero) would have the im2col GEMM read past its padded plane.
  Rng rng(22);
  const Tensor data = RandomOf(Shape{1, 4, 1, 8}, DType::kInt8, rng);
  const Tensor w = RandomOf(Shape{8, 4, 3, 3}, DType::kInt8, rng);
  for (const i64 stride : {2, 1000}) {
    EXPECT_EQ(ConvOutDim(1, 3, 0, 1, stride), 0);
    auto conv = Conv2d(data, w, {stride, 1}, {0, 1, 1, 1}, 1);
    EXPECT_EQ(conv.status().code(), StatusCode::kInvalidArgument);
    auto pool = MaxPool2d(data, {3, 3}, {stride, 1}, {0, 1, 1, 1});
    EXPECT_EQ(pool.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(ConvOutDim(2, 3, 0, 1, 2), 1);
}

// nn.dense's old loop: an i64 accumulator narrowed to int32.
Tensor NaiveDense(const Tensor& data, const Tensor& weight) {
  const i64 N = data.shape()[0], I = data.shape()[1], O = weight.shape()[0];
  Tensor out(Shape{N, O}, DType::kInt32);
  for (i64 n = 0; n < N; ++n) {
    for (i64 o = 0; o < O; ++o) {
      i64 acc = 0;
      for (i64 i = 0; i < I; ++i) {
        acc += data.GetFlat(n * I + i) * weight.GetFlat(o * I + i);
      }
      out.SetFlat(n * O + o, static_cast<i32>(acc));
    }
  }
  return out;
}

TEST(KernelDifferential, DenseMatchesNaiveLoop) {
  Rng rng(21);
  // I > 65536 spans two i32 chunks; O = 7 runs the 4-channel pass and the
  // remainder rows; odd I leaves a partial 8-lane vector.
  const std::pair<i64, i64> io[] = {{3, 1}, {37, 7}, {640, 128}, {70001, 7}};
  for (const auto& [I, O] : io) {
    for (const DType wt : {DType::kInt8, DType::kTernary}) {
      const Tensor data = RandomOf(Shape{2, I}, DType::kInt8, rng);
      const Tensor w = RandomOf(Shape{O, I}, wt, rng);
      auto got = Dense(data, w);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->SameAs(NaiveDense(data, w)))
          << "I " << I << " O " << O << " " << DTypeName(wt);
    }
  }
  // All -128 over 131073 terms wraps int32 like the narrowed i64 sum.
  const i64 I = 131073;
  const Tensor ones = Tensor::FromInt8(
      Shape{1, I}, std::vector<i8>(static_cast<size_t>(I), -128));
  const Tensor w = Tensor::FromInt8(
      Shape{5, I}, std::vector<i8>(static_cast<size_t>(5 * I), -128));
  auto got = Dense(ones, w);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data<i32>()[4], static_cast<i32>(i64{2147500032}));
  EXPECT_TRUE(got->SameAs(NaiveDense(ones, w)));
}

TEST(KernelDifferential, ElementwiseOpsMatchFlatAccessorsOnEveryDType) {
  Rng rng(99);
  const Shape shape{2, 3, 4, 5};
  for (const DType dt : kAllDTypes) {
    const Tensor x = RandomOf(shape, dt, rng);
    SCOPED_TRACE(DTypeName(dt));

    for (const DType bt : kAllDTypes) {
      for (const i64 axis : {0, 1, 3}) {
        const Tensor bias = RandomOf(Shape{shape[axis]}, bt, rng);
        auto got = BiasAdd(x, bias, axis);
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->SameAs(NaiveMap(x, dt, [&](i64 i, i64 v) {
          return v + bias.GetFlat(ChannelOf(shape, axis, i));
        }))) << "bias_add bias " << DTypeName(bt) << " axis " << axis;
      }

      const Tensor rhs = RandomOf(shape, bt, rng);
      auto sum = Add(x, rhs);
      ASSERT_TRUE(sum.ok());
      const DType sum_t = dt == DType::kInt8 && bt == DType::kInt8
                              ? DType::kInt32
                              : dt;
      EXPECT_TRUE(sum->SameAs(NaiveMap(x, sum_t, [&](i64 i, i64 v) {
        return v + rhs.GetFlat(i);
      }))) << "add rhs " << DTypeName(bt);
    }

    const Tensor scalar = Tensor::FromInt32(Shape{1}, {5});
    const Tensor per_channel = Tensor::FromInt8(Shape{3}, {1, 11, 21});
    for (const Tensor* shift : {&scalar, &per_channel}) {
      auto got = RightShift(x, *shift);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->SameAs(NaiveMap(x, dt, [&](i64 i, i64 v) {
        const i64 c = shift->NumElements() == 1 ? 0 : ChannelOf(shape, 1, i);
        return RoundingRightShift(v, shift->GetFlat(c));
      }))) << "right_shift by " << shift->NumElements();
    }

    auto clipped = Clip(x, -100, 50);
    ASSERT_TRUE(clipped.ok());
    EXPECT_TRUE(clipped->SameAs(
        NaiveMap(x, dt, [](i64, i64 v) { return Clamp(v, -100, 50); })));

    auto relu = Relu(x);
    ASSERT_TRUE(relu.ok());
    EXPECT_TRUE(relu->SameAs(
        NaiveMap(x, dt, [](i64, i64 v) { return std::max<i64>(0, v); })));

    for (const DType to : kAllDTypes) {
      i64 lo = -(i64{1} << 62), hi = i64{1} << 62;
      if (to == DType::kInt8 || to == DType::kTernary) lo = -128, hi = 127;
      if (to == DType::kInt16) lo = -32768, hi = 32767;
      if (to == DType::kInt32) lo = INT32_MIN, hi = INT32_MAX;
      auto cast = Cast(x, to);
      ASSERT_TRUE(cast.ok());
      EXPECT_TRUE(cast->SameAs(
          NaiveMap(x, to, [&](i64, i64 v) { return Clamp(v, lo, hi); })))
          << "cast to " << DTypeName(to);
    }
  }

  // Edge inputs for the typed int32 / int8 paths: the type's extremes,
  // shifts 0, 1 and 31, bias sums that wrap, and clip bounds outside the
  // type or with a_min > a_max.
  for (const DType dt : {DType::kInt32, DType::kInt8}) {
    SCOPED_TRACE(DTypeName(dt));
    const i64 lo = dt == DType::kInt32 ? INT32_MIN : -128;
    const i64 hi = dt == DType::kInt32 ? INT32_MAX : 127;
    const i64 edges[] = {lo, lo + 1, -2, -1, 0, 1, 2, hi - 1, hi};
    Tensor x = RandomOf(shape, dt, rng);
    for (i64 i = 0; i < x.NumElements(); i += 2) {
      x.SetFlat(i, edges[(i / 2) % std::size(edges)]);
    }

    const Tensor bias = Tensor::FromInt32(Shape{3}, {INT32_MAX, INT32_MIN, -1});
    auto biased = BiasAdd(x, bias, 1);
    ASSERT_TRUE(biased.ok());
    EXPECT_TRUE(biased->SameAs(NaiveMap(x, dt, [&](i64 i, i64 v) {
      return v + bias.GetFlat(ChannelOf(shape, 1, i));
    }))) << "bias_add at the extremes";

    for (const i64 sh : {0, 1, 31}) {
      const Tensor scalar = Tensor::FromInt32(Shape{1}, {static_cast<i32>(sh)});
      auto got = RightShift(x, scalar);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->SameAs(NaiveMap(
          x, dt, [&](i64, i64 v) { return RoundingRightShift(v, sh); })))
          << "right_shift by " << sh;
    }
    const Tensor per_channel = Tensor::FromInt32(Shape{3}, {0, 1, 31});
    auto shifted = RightShift(x, per_channel);
    ASSERT_TRUE(shifted.ok());
    EXPECT_TRUE(shifted->SameAs(NaiveMap(x, dt, [&](i64 i, i64 v) {
      return RoundingRightShift(v, per_channel.GetFlat(ChannelOf(shape, 1, i)));
    }))) << "right_shift by {0, 1, 31}";

    const std::pair<i64, i64> bounds[] = {
        {-100, 50},          {50, -100},           {lo, hi},
        {lo - 1, hi + 1},    {-(i64{1} << 40), 5}, {5, i64{1} << 40},
        {INT32_MIN, INT32_MAX}, {200, 300},        {hi, lo}};
    for (const auto& [a_min, a_max] : bounds) {
      auto got = Clip(x, a_min, a_max);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got->SameAs(NaiveMap(
          x, dt, [&](i64, i64 v) { return Clamp(v, a_min, a_max); })))
          << "clip [" << a_min << ", " << a_max << "]";
    }

    for (const DType to : {DType::kInt8, DType::kInt32}) {
      const i64 to_lo = to == DType::kInt8 ? -128 : INT32_MIN;
      const i64 to_hi = to == DType::kInt8 ? 127 : INT32_MAX;
      auto cast = Cast(x, to);
      ASSERT_TRUE(cast.ok());
      EXPECT_TRUE(cast->SameAs(NaiveMap(
          x, to, [&](i64, i64 v) { return Clamp(v, to_lo, to_hi); })))
          << "cast to " << DTypeName(to);
    }
  }
}

// RequantizeRow is the interpreter's bias_add -> right_shift -> clip ->
// cast [-> clip] chain element for element, the int32 wrap after the bias
// add included.
TEST(KernelDifferential, RequantizeRowMatchesInterpreterChain) {
  Rng rng(77);
  const i64 C = 4, n = 37;  // an odd row: vector body plus scalar tail
  Tensor acc(Shape{1, C, 1, n}, DType::kInt32);
  const i64 edges[] = {INT32_MIN, INT32_MIN + 1, -(1 << 20), -1,       0,
                       1,         1 << 20,       INT32_MAX - 1, INT32_MAX};
  for (i64 i = 0; i < acc.NumElements(); ++i) {
    acc.SetFlat(i, i % 3 == 0 ? edges[(i / 3) % std::size(edges)]
                              : rng.UniformInt(INT32_MIN, INT32_MAX));
  }
  const auto random = [&](i64 lo, i64 hi) {
    std::vector<i32> v(static_cast<size_t>(C));
    for (i32& e : v) e = static_cast<i32>(rng.UniformInt(lo, hi));
    return v;
  };
  const std::vector<i32> biases[] = {
      {0, 0, 0, 0},
      {INT32_MAX - 100, INT32_MIN + 100, -1, INT32_MAX},
      random(INT32_MIN, INT32_MAX)};
  const std::vector<i32> shifts[] = {
      {0, 1, 31, 20}, {7, 7, 7, 7}, random(0, 31)};
  for (const bool relu : {false, true}) {
    for (const std::vector<i32>& bias : biases) {
      for (const std::vector<i32>& shift : shifts) {
        auto chain = BiasAdd(acc, Tensor::FromInt32(Shape{C}, bias), 1);
        ASSERT_TRUE(chain.ok());
        chain = RightShift(*chain, Tensor::FromInt32(Shape{C}, shift));
        ASSERT_TRUE(chain.ok());
        chain = Clip(*chain, -128, 127);
        ASSERT_TRUE(chain.ok());
        chain = Cast(*chain, DType::kInt8);
        ASSERT_TRUE(chain.ok());
        if (relu) chain = Clip(*chain, 0, 127);
        ASSERT_TRUE(chain.ok());

        Tensor row(acc.shape(), DType::kInt8);
        for (i64 c = 0; c < C; ++c) {
          RequantizeRow(acc.data<i32>().data() + c * n, n,
                        bias[static_cast<size_t>(c)],
                        shift[static_cast<size_t>(c)], relu,
                        row.data<i8>().data() + c * n);
        }
        EXPECT_TRUE(row.SameAs(*chain))
            << "relu " << relu << " bias " << bias[0] << " shift "
            << shift[0];
      }
    }
  }
}

// matmul through the flat accessors with an i64 accumulator: a [batch, m,
// k] x b ([n, k] with transpose_b, [k, n] without; a rank-2 b is shared by
// every batch), narrowed like SetFlat into int32.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b, bool transpose_b) {
  const Shape& as = a.shape();
  const i64 m = as[as.rank() - 2], k = as[as.rank() - 1];
  const i64 batch = a.NumElements() / (m * k);
  const i64 n = b.NumElements() / k / (b.shape().rank() == 2 ? 1 : batch);
  std::vector<i64> dims(as.dims().begin(), as.dims().end() - 1);
  dims.push_back(n);
  Tensor want{Shape(dims), DType::kInt32};
  for (i64 bi = 0; bi < batch; ++bi) {
    const i64 b0 = b.shape().rank() == 2 ? 0 : bi * n * k;
    for (i64 r = 0; r < m; ++r) {
      for (i64 c = 0; c < n; ++c) {
        i64 acc = 0;
        for (i64 x = 0; x < k; ++x) {
          acc += a.GetFlat((bi * m + r) * k + x) *
                 b.GetFlat(b0 + (transpose_b ? c * k + x : x * n + c));
        }
        want.SetFlat((bi * m + r) * n + c, acc);
      }
    }
  }
  return want;
}

TEST(KernelDifferential, MatMulMatchesFlatAccessors) {
  // matmul runs on the int8 GEMM core: an int8 lhs by an int8 or ternary
  // rhs, both to int32. Any other operand dtype is InvalidArgument.
  Rng rng(5);
  const std::pair<DType, DType> dtypes[] = {{DType::kInt8, DType::kInt8},
                                            {DType::kInt8, DType::kTernary},
                                            {DType::kInt32, DType::kInt8},
                                            {DType::kFloat32, DType::kInt16}};
  for (const auto& [at, bt] : dtypes) {
    for (const bool transpose_b : {false, true}) {
      for (const bool shared_b : {false, true}) {
        const i64 batch = 3, m = 4, k = 7, n = 5;
        const Tensor a = RandomOf(Shape{batch, m, k}, at, rng);
        const Shape b_mat = transpose_b ? Shape{n, k} : Shape{k, n};
        const Tensor b = RandomOf(
            shared_b ? b_mat : Shape{batch, b_mat[0], b_mat[1]}, bt, rng);
        auto got = MatMul(a, b, transpose_b);
        if (at != DType::kInt8) {
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
          continue;
        }
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(got->SameAs(NaiveMatMul(a, b, transpose_b)))
            << DTypeName(at) << " x " << DTypeName(bt) << " transpose_b "
            << transpose_b << " shared_b " << shared_b;
      }
    }
  }
}

TEST(KernelDifferential, MatMulGemmShapesMatchNaiveLoop) {
  // Reduction lengths that are odd, not a multiple of the 8-lane vector,
  // and past one 2^16-term i32 chunk; n = 5 runs the GEMM's 4-channel pass
  // and its remainder row; shared and batched rhs in both layouts.
  Rng rng(27);
  int cases = 0;
  for (const i64 k : {1, 7, 13, 16, 70001}) {
    for (const bool transpose_b : {false, true}) {
      for (const bool shared_b : {false, true}) {
        for (const DType bt : {DType::kInt8, DType::kTernary}) {
          const i64 batch = 2, m = k > 1000 ? 1 : 3;
          const i64 n = k > 1000 ? 5 : 1 + k % 6;
          const Tensor a = RandomOf(Shape{batch, m, k}, DType::kInt8, rng);
          const Shape b_mat = transpose_b ? Shape{n, k} : Shape{k, n};
          const Tensor b = RandomOf(
              shared_b ? b_mat : Shape{batch, b_mat[0], b_mat[1]}, bt, rng);
          auto got = MatMul(a, b, transpose_b);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_TRUE(got->SameAs(NaiveMatMul(a, b, transpose_b)))
              << "k " << k << " n " << n << " transpose_b " << transpose_b
              << " shared_b " << shared_b << " " << DTypeName(bt);
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 40);
  // All -128 over 131073 terms: 2147500032 overflows int32, and the output
  // keeps its low 32 bits like the narrowed i64 sum, in both layouts.
  const i64 k = 131073;
  const Tensor a = Tensor::FromInt8(
      Shape{1, k}, std::vector<i8>(static_cast<size_t>(k), -128));
  const Tensor b = Tensor::FromInt8(
      Shape{5, k}, std::vector<i8>(static_cast<size_t>(5 * k), -128));
  for (const bool transpose_b : {false, true}) {
    auto got = MatMul(a, transpose_b ? b : b.Reshaped(Shape{k, 5}),
                      transpose_b);
    ASSERT_TRUE(got.ok());
    for (i64 c = 0; c < 5; ++c) {
      EXPECT_EQ(got->data<i32>()[static_cast<size_t>(c)],
                static_cast<i32>(i64{2147500032}))
          << "transpose_b " << transpose_b << " c " << c;
    }
  }
}

// Per-element pooling and pad loops through At4/Set4: the reference for
// the window walk and the row copies.
Tensor NaivePool(const Tensor& data, bool max, i64 ph, i64 pw, i64 sy, i64 sx,
                 const std::vector<i64>& pad) {
  const i64 N = data.shape()[0], C = data.shape()[1];
  const i64 H = data.shape()[2], W = data.shape()[3];
  const i64 oh = (H + pad[0] + pad[2] - ph) / sy + 1;
  const i64 ow = (W + pad[1] + pad[3] - pw) / sx + 1;
  Tensor out(Shape{N, C, oh, ow}, data.dtype());
  // Max pooling starts at the element type's minimum.
  const i64 lowest = data.dtype() == DType::kInt32
                         ? i64{std::numeric_limits<i32>::min()}
                         : -128;
  for (i64 n = 0; n < N; ++n) {
    for (i64 c = 0; c < C; ++c) {
      for (i64 oy = 0; oy < oh; ++oy) {
        for (i64 ox = 0; ox < ow; ++ox) {
          i64 acc = max ? lowest : 0;
          i64 count = 0;
          for (i64 fy = 0; fy < ph; ++fy) {
            const i64 iy = oy * sy + fy - pad[0];
            if (iy < 0 || iy >= H) continue;
            for (i64 fx = 0; fx < pw; ++fx) {
              const i64 ix = ox * sx + fx - pad[1];
              if (ix < 0 || ix >= W) continue;
              const i64 v = data.At4(n, c, iy, ix);
              acc = max ? std::max(acc, v) : acc + v;
              ++count;
            }
          }
          if (!max) {
            acc = count == 0 ? 0
                  : acc >= 0 ? (acc + count / 2) / count
                             : -((-acc + count / 2) / count);
          }
          out.Set4(n, c, oy, ox, acc);
        }
      }
    }
  }
  return out;
}

Tensor NaivePad(const Tensor& data, const std::vector<i64>& pad) {
  const i64 N = data.shape()[0], C = data.shape()[1];
  const i64 H = data.shape()[2], W = data.shape()[3];
  Tensor out(Shape{N, C, H + pad[0] + pad[2], W + pad[1] + pad[3]},
             data.dtype());
  for (i64 n = 0; n < N; ++n) {
    for (i64 c = 0; c < C; ++c) {
      for (i64 y = 0; y < H; ++y) {
        for (i64 x = 0; x < W; ++x) {
          out.Set4(n, c, y + pad[0], x + pad[1], data.At4(n, c, y, x));
        }
      }
    }
  }
  return out;
}

TEST(KernelDifferential, PoolingMatchesNaiveLoopOnRandomGeometry) {
  Rng rng(31);
  int cases = 0, padded_windows = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const i64 ph = rng.UniformInt(1, 4), pw = rng.UniformInt(1, 4);
    const i64 sy = rng.UniformInt(1, 3), sx = rng.UniformInt(1, 3);
    const std::vector<i64> pad = {rng.UniformInt(0, 3), rng.UniformInt(0, 3),
                                  rng.UniformInt(0, 3), rng.UniformInt(0, 3)};
    const i64 H = rng.UniformInt(1, 9), W = rng.UniformInt(1, 9);
    const DType dt = trial % 2 ? DType::kInt32 : DType::kInt8;
    const Tensor data = RandomOf(
        Shape{rng.UniformInt(1, 2), rng.UniformInt(1, 3), H, W}, dt, rng);
    // A window larger than the padded input leaves no output.
    if (H + pad[0] + pad[2] < ph || W + pad[1] + pad[3] < pw) {
      EXPECT_FALSE(AvgPool2d(data, {ph, pw}, {sy, sx}, pad).ok());
      EXPECT_FALSE(MaxPool2d(data, {ph, pw}, {sy, sx}, pad).ok());
      continue;
    }
    // The first window row or column lies wholly in the top/left padding.
    if (pad[0] >= ph || pad[1] >= pw) ++padded_windows;
    for (const bool max : {false, true}) {
      auto got = max ? MaxPool2d(data, {ph, pw}, {sy, sx}, pad)
                     : AvgPool2d(data, {ph, pw}, {sy, sx}, pad);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got->SameAs(NaivePool(data, max, ph, pw, sy, sx, pad)))
          << (max ? "max" : "avg") << " pool " << ph << "x" << pw
          << " stride " << sy << "," << sx << " pad " << pad[0] << ","
          << pad[1] << "," << pad[2] << "," << pad[3] << " in " << H << "x"
          << W << " " << DTypeName(dt);
      ++cases;
    }
  }
  EXPECT_GT(cases, 1000);
  EXPECT_GT(padded_windows, 50);
}

TEST(KernelDifferential, GlobalAvgPoolAndPadMatchNaiveLoop) {
  Rng rng(33);
  for (int trial = 0; trial < 200; ++trial) {
    const DType dt = trial % 2 ? DType::kInt32 : DType::kInt8;
    const Tensor data =
        RandomOf(Shape{rng.UniformInt(1, 2), rng.UniformInt(1, 5),
                       rng.UniformInt(1, 9), rng.UniformInt(1, 9)},
                 dt, rng);
    const i64 H = data.shape()[2], W = data.shape()[3];
    auto pooled = GlobalAvgPool2d(data);
    ASSERT_TRUE(pooled.ok());
    EXPECT_TRUE(
        pooled->SameAs(NaivePool(data, false, H, W, 1, 1, {0, 0, 0, 0})))
        << "global " << H << "x" << W << " " << DTypeName(dt);
    const std::vector<i64> pad = {rng.UniformInt(0, 3), rng.UniformInt(0, 3),
                                  rng.UniformInt(0, 3), rng.UniformInt(0, 3)};
    auto padded = Pad2d(data, pad);
    ASSERT_TRUE(padded.ok());
    EXPECT_TRUE(padded->SameAs(NaivePad(data, pad)))
        << "pad " << pad[0] << "," << pad[1] << "," << pad[2] << ","
        << pad[3] << " " << DTypeName(dt);
  }
  EXPECT_EQ(Pad2d(RandomOf(Shape{1, 1, 2, 2}, DType::kInt8, rng),
                  {0, -1, 0, 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Pooling, MaxPool) {
  Tensor data = Tensor::FromInt8(Shape{1, 1, 2, 4},
                                 {1, 5, 2, 6, 3, 7, 4, 8});
  auto out = MaxPool2d(data, {2, 2}, {2, 2}, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 1, 1, 2}));
  EXPECT_EQ(out->At4(0, 0, 0, 0), 7);
  EXPECT_EQ(out->At4(0, 0, 0, 1), 8);
}

TEST(Pooling, MaxPoolInt32BelowInt8Range) {
  Tensor data(Shape{1, 1, 2, 2}, DType::kInt32);
  for (i64 i = 0; i < 4; ++i) data.SetFlat(i, -1000 - i);
  auto out = MaxPool2d(data, {2, 2}, {2, 2}, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At4(0, 0, 0, 0), -1000);
}

// The window walk reduces in i64, so float data is refused instead of
// truncated.
TEST(Pooling, RejectsFloat32) {
  Tensor data(Shape{1, 1, 2, 2}, DType::kFloat32);
  for (size_t i = 0; i < 4; ++i) {
    data.data<float>()[i] = 0.5f + static_cast<float>(i);
  }
  EXPECT_EQ(AvgPool2d(data, {2, 2}, {2, 2}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MaxPool2d(data, {2, 2}, {2, 2}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GlobalAvgPool2d(data).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Pooling, AvgPoolRounds) {
  Tensor data = Tensor::FromInt8(Shape{1, 1, 2, 2}, {1, 2, 3, 5});
  auto out = AvgPool2d(data, {2, 2}, {2, 2}, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->At4(0, 0, 0, 0), 3);  // 11/4 = 2.75 -> 3
}

TEST(Pooling, GlobalAvgPool) {
  Tensor data = Tensor::FromInt8(Shape{1, 2, 2, 2},
                                 {1, 1, 1, 1, -3, -3, -3, -5});
  auto out = GlobalAvgPool2d(data);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 2, 1, 1}));
  EXPECT_EQ(out->At4(0, 0, 0, 0), 1);
  EXPECT_EQ(out->At4(0, 1, 0, 0), -4);  // -14/4 = -3.5 -> -4 (away from 0)
}

TEST(Softmax, MonotoneAndNormalized) {
  Tensor data = Tensor::FromInt8(Shape{1, 4}, {10, 20, 30, 40});
  auto out = Softmax(data);
  ASSERT_TRUE(out.ok());
  // Monotone in the input, peak dominates.
  EXPECT_LE(out->GetFlat(0), out->GetFlat(1));
  EXPECT_LE(out->GetFlat(1), out->GetFlat(2));
  EXPECT_LE(out->GetFlat(2), out->GetFlat(3));
  EXPECT_GT(out->GetFlat(3), 30);
  // Deterministic.
  auto again = Softmax(data);
  EXPECT_TRUE(out->SameAs(*again));
}

}  // namespace
}  // namespace htvm::nn
