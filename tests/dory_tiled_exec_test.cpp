// The core correctness property of the DORY backend: executing a layer
// tile-by-tile through the generated schedule is bit-exact with the untiled
// reference kernels, for every layer kind, geometry and L1 budget.
#include <gtest/gtest.h>

#include "dory/tiled_exec.hpp"
#include "models/layer_zoo.hpp"
#include "nn/kernels.hpp"
#include "tensor/quantize.hpp"

namespace htvm::dory {
namespace {

using models::ConvLayerParams;
using models::MakeConvSpec;
using models::MakeDenseSpec;

const hw::DianaConfig kCfg = hw::DianaConfig::Default();

TilerOptions WithBudget(i64 bytes) {
  TilerOptions o;
  o.l1_budget_bytes = bytes;
  return o;
}

// Reference: untiled conv + bias + requant using the nn kernels.
Tensor ReferenceConv(const AccelLayerSpec& spec, const Tensor& data,
                     const Tensor& weight, const Tensor& bias,
                     bool clamp7bit) {
  const Tensor in = clamp7bit ? ClampTo7Bit(data) : data;
  auto acc = nn::Conv2d(in, weight, {spec.sy, spec.sx},
                        {spec.pad_t, spec.pad_l, spec.pad_b, spec.pad_r},
                        spec.kind == LayerKind::kDwConv2d ? spec.c : 1);
  HTVM_CHECK(acc.ok());
  auto biased = nn::BiasAdd(*acc, bias, 1);
  HTVM_CHECK(biased.ok());
  return RequantizeTensor(*biased, spec.requant);
}

Tensor ReferenceDense(const AccelLayerSpec& spec, const Tensor& data,
                      const Tensor& weight, const Tensor& bias) {
  auto acc = nn::Dense(data, weight);
  HTVM_CHECK(acc.ok());
  auto biased = nn::BiasAdd(*acc, bias, 1);
  HTVM_CHECK(biased.ok());
  return RequantizeTensor(*biased, spec.requant);
}

void ExpectTiledMatchesReference(const ConvLayerParams& p, i64 budget,
                                 AccelTarget target) {
  const AccelLayerSpec spec = MakeConvSpec(p);
  auto sched = BuildSchedule(spec, kCfg, target, WithBudget(budget));
  ASSERT_TRUE(sched.ok()) << sched.status().ToString();

  Rng rng(p.seed + budget);
  const Tensor data =
      Tensor::Random(Shape{1, spec.c, spec.iy, spec.ix}, DType::kInt8, rng);
  const Tensor weight = Tensor::Random(
      Shape{spec.k, spec.kind == LayerKind::kDwConv2d ? 1 : spec.c, spec.kh,
            spec.kw},
      p.weight_dtype, rng);
  const Tensor bias = Tensor::Random(Shape{spec.k}, DType::kInt32, rng);

  auto tiled = ExecuteTiled(*sched, std::vector<Tensor>{data}, &weight, &bias);
  ASSERT_TRUE(tiled.ok()) << tiled.status().ToString();
  const Tensor ref = ReferenceConv(spec, data, weight, bias,
                                   target == AccelTarget::kAnalog);
  ASSERT_EQ(tiled->shape(), ref.shape());
  EXPECT_TRUE(tiled->SameAs(ref))
      << "tiled execution diverged (tiles=" << sched->steps.size() << ")";
}

TEST(TiledExec, UntiledConvMatches) {
  ConvLayerParams p;
  p.c = 8;
  p.k = 8;
  p.iy = p.ix = 10;
  ExpectTiledMatchesReference(p, 256 * 1024, AccelTarget::kDigital);
}

TEST(TiledExec, SpatialTilingMatches) {
  ConvLayerParams p;
  p.c = 8;
  p.k = 8;
  p.iy = p.ix = 16;
  ExpectTiledMatchesReference(p, 2 * 1024, AccelTarget::kDigital);
}

TEST(TiledExec, ChannelTilingWithPsumMatches) {
  ConvLayerParams p;
  p.c = 64;
  p.k = 16;
  p.iy = p.ix = 10;
  ExpectTiledMatchesReference(p, 3 * 1024, AccelTarget::kDigital);
}

TEST(TiledExec, StrideTwoTilingMatches) {
  ConvLayerParams p;
  p.c = 16;
  p.k = 16;
  p.iy = p.ix = 20;
  p.stride = 2;
  ExpectTiledMatchesReference(p, 3 * 1024, AccelTarget::kDigital);
}

TEST(TiledExec, NoPaddingLayerMatches) {
  ConvLayerParams p;
  p.c = 8;
  p.k = 12;
  p.iy = p.ix = 15;
  p.same_padding = false;
  ExpectTiledMatchesReference(p, 2 * 1024, AccelTarget::kDigital);
}

TEST(TiledExec, AsymmetricKernelMatches) {
  ConvLayerParams p;
  p.c = 4;
  p.k = 8;
  p.kh = 7;
  p.kw = 5;
  p.iy = 49;
  p.ix = 10;
  p.stride = 2;
  ExpectTiledMatchesReference(p, 4 * 1024, AccelTarget::kDigital);
}

TEST(TiledExec, DepthwiseTilingMatches) {
  ConvLayerParams p;
  p.depthwise = true;
  p.c = 32;
  p.iy = p.ix = 16;
  ExpectTiledMatchesReference(p, 2 * 1024, AccelTarget::kDigital);
}

TEST(TiledExec, AnalogClampsTo7Bit) {
  ConvLayerParams p;
  p.c = 16;
  p.k = 16;
  p.iy = p.ix = 12;
  p.weight_dtype = DType::kTernary;
  ExpectTiledMatchesReference(p, 16 * 1024, AccelTarget::kAnalog);
}

TEST(TiledExec, AnalogSpatialTilingMatches) {
  ConvLayerParams p;
  p.c = 32;
  p.k = 32;
  p.iy = p.ix = 32;
  p.weight_dtype = DType::kTernary;
  ExpectTiledMatchesReference(p, 8 * 1024, AccelTarget::kAnalog);
}

TEST(TiledExec, DenseTiledMatches) {
  const AccelLayerSpec spec = MakeDenseSpec(640, 128);
  auto sched = BuildSchedule(spec, kCfg, AccelTarget::kDigital, {});
  ASSERT_TRUE(sched.ok());
  ASSERT_GT(sched->steps.size(), 1u);  // weight memory forces tiling
  Rng rng(42);
  const Tensor data = Tensor::Random(Shape{1, 640}, DType::kInt8, rng);
  const Tensor weight = Tensor::Random(Shape{128, 640}, DType::kInt8, rng);
  const Tensor bias = Tensor::Random(Shape{128}, DType::kInt32, rng);
  auto tiled = ExecuteTiled(*sched, std::vector<Tensor>{data}, &weight, &bias);
  ASSERT_TRUE(tiled.ok());
  EXPECT_TRUE(tiled->SameAs(ReferenceDense(spec, data, weight, bias)));
}

TEST(TiledExec, AddTiledMatches) {
  AccelLayerSpec spec;
  spec.kind = LayerKind::kAdd;
  spec.c = spec.k = 32;
  spec.iy = spec.oy = 16;
  spec.ix = spec.ox = 16;
  spec.requant.shift = 1;
  spec.requant.relu = false;
  auto sched = BuildSchedule(spec, kCfg, AccelTarget::kDigital,
                             WithBudget(4 * 1024));
  ASSERT_TRUE(sched.ok());
  Rng rng(5);
  const Tensor a = Tensor::Random(Shape{1, 32, 16, 16}, DType::kInt8, rng);
  const Tensor b = Tensor::Random(Shape{1, 32, 16, 16}, DType::kInt8, rng);
  auto tiled = ExecuteTiled(*sched, std::vector<Tensor>{a, b}, nullptr,
                            nullptr);
  ASSERT_TRUE(tiled.ok()) << tiled.status().ToString();
  auto sum = nn::Add(a, b);
  ASSERT_TRUE(sum.ok());
  const Tensor ref = RequantizeTensor(*sum, spec.requant);
  EXPECT_TRUE(tiled->SameAs(ref));
}

// Tensors or steps that disagree with the layer are typed errors, checked
// before any tile is read or written.
TEST(TiledExec, MismatchedInputsAreTypedErrors) {
  auto expect_invalid = [](const Result<Tensor>& r) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  };
  Rng rng(11);

  // An add whose rhs has half of the layer's columns.
  AccelLayerSpec add;
  add.kind = LayerKind::kAdd;
  add.c = add.k = 32;
  add.iy = add.oy = 16;
  add.ix = add.ox = 16;
  auto add_sched =
      BuildSchedule(add, kCfg, AccelTarget::kDigital, WithBudget(4 * 1024));
  ASSERT_TRUE(add_sched.ok());
  const Tensor a = Tensor::Random(Shape{1, 32, 16, 16}, DType::kInt8, rng);
  const Tensor narrow = Tensor::Random(Shape{1, 32, 16, 8}, DType::kInt8, rng);
  expect_invalid(ExecuteTiled(*add_sched, std::vector<Tensor>{a, narrow},
                              nullptr, nullptr));

  // A conv fed 8 of its 16 input channels.
  const AccelLayerSpec conv = MakeConvSpec(ConvLayerParams{});
  auto conv_sched = BuildSchedule(conv, kCfg, AccelTarget::kDigital, {});
  ASSERT_TRUE(conv_sched.ok());
  const Tensor weight =
      Tensor::Random(Shape{conv.k, conv.c, conv.kh, conv.kw}, DType::kInt8,
                     rng);
  const Tensor bias = Tensor::Random(Shape{conv.k}, DType::kInt32, rng);
  const Tensor half =
      Tensor::Random(Shape{1, 8, conv.iy, conv.ix}, DType::kInt8, rng);
  expect_invalid(ExecuteTiled(*conv_sched, std::vector<Tensor>{half},
                              &weight, &bias));

  // A step reaching past the layer's output channels.
  const Tensor data =
      Tensor::Random(Shape{1, conv.c, conv.iy, conv.ix}, DType::kInt8, rng);
  ASSERT_TRUE(ExecuteTiled(*conv_sched, std::vector<Tensor>{data}, &weight,
                           &bias)
                  .ok());
  AccelSchedule bad_step = *conv_sched;
  bad_step.steps.back().k0 = conv.k;
  expect_invalid(ExecuteTiled(bad_step, std::vector<Tensor>{data}, &weight,
                              &bias));
}

// Property sweep: random geometries x budgets, digital target.
struct ExecCase {
  i64 c, k, hw, kernel, stride, budget;
  bool dw;
};

class TiledExecSweep : public ::testing::TestWithParam<ExecCase> {};

TEST_P(TiledExecSweep, BitExact) {
  const ExecCase e = GetParam();
  ConvLayerParams p;
  p.c = e.c;
  p.k = e.k;
  p.iy = p.ix = e.hw;
  p.kh = p.kw = e.kernel;
  p.stride = e.stride;
  p.depthwise = e.dw;
  p.seed = static_cast<u64>(e.c * 131 + e.hw);
  ExpectTiledMatchesReference(p, e.budget, AccelTarget::kDigital);
}

// Analog-target sweep: ternary weights, 7-bit clamp, spatial-only tiling.
class AnalogExecSweep : public ::testing::TestWithParam<ExecCase> {};

TEST_P(AnalogExecSweep, BitExact) {
  const ExecCase e = GetParam();
  ConvLayerParams p;
  p.c = e.c;
  p.k = e.k;
  p.iy = p.ix = e.hw;
  p.kh = p.kw = e.kernel;
  p.stride = e.stride;
  p.weight_dtype = DType::kTernary;
  p.seed = static_cast<u64>(e.c * 977 + e.hw);
  ExpectTiledMatchesReference(p, e.budget, AccelTarget::kAnalog);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AnalogExecSweep,
    ::testing::Values(ExecCase{8, 8, 16, 3, 1, 2048, false},
                      ExecCase{16, 32, 16, 1, 1, 2048, false},
                      ExecCase{32, 16, 24, 3, 2, 4096, false},
                      ExecCase{24, 24, 20, 3, 1, 8192, false},
                      ExecCase{64, 64, 16, 3, 1, 16384, false},
                      ExecCase{5, 11, 13, 3, 1, 1024, false}));

INSTANTIATE_TEST_SUITE_P(
    Geometries, TiledExecSweep,
    ::testing::Values(ExecCase{3, 16, 32, 3, 1, 4096, false},
                      ExecCase{16, 32, 16, 3, 1, 2048, false},
                      ExecCase{32, 32, 16, 1, 1, 2048, false},
                      ExecCase{24, 24, 12, 5, 1, 4096, false},
                      ExecCase{16, 16, 24, 3, 2, 2048, false},
                      ExecCase{48, 8, 8, 3, 1, 1024, false},
                      ExecCase{64, 64, 8, 1, 1, 2048, false},
                      ExecCase{16, 16, 32, 3, 1, 8192, true},
                      ExecCase{64, 64, 16, 3, 2, 4096, true},
                      ExecCase{7, 13, 11, 3, 1, 1024, false}));

}  // namespace
}  // namespace htvm::dory
