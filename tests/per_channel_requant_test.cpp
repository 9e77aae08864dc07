// Per-output-channel requantization (real quantized models carry
// per-channel scales; DIANA's output stage applies them per channel).
#include <gtest/gtest.h>

#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "ir/builder.hpp"
#include "nn/interpreter.hpp"
#include "runtime/verify.hpp"
#include "tensor/quantize.hpp"

namespace htvm {
namespace {

Graph PerChannelConvGraph(u64 seed, i64 c = 8, i64 k = 16, i64 hw = 12) {
  GraphBuilder b(seed);
  NodeId x = b.Input("x", Shape{1, c, hw, hw});
  ConvSpec spec;
  spec.out_channels = k;
  spec.per_channel_requant = true;
  spec = WithSamePadding(spec, hw, hw);
  return b.Finish(b.ConvBlock(x, spec, "c"));
}

TEST(PerChannel, RequantizeTensorAppliesPerChannelShifts) {
  Tensor acc = Tensor::FromInt32(Shape{1, 2, 1, 2}, {256, 256, 256, 256});
  RequantParams p;
  p.relu = false;
  p.channel_shifts = {4, 6};
  Tensor out = RequantizeTensor(acc, p);
  EXPECT_EQ(out.GetFlat(0), 16);  // 256 >> 4
  EXPECT_EQ(out.GetFlat(1), 16);
  EXPECT_EQ(out.GetFlat(2), 4);   // 256 >> 6
  EXPECT_EQ(out.GetFlat(3), 4);
}

TEST(PerChannel, RightShiftKernelBroadcasts) {
  Tensor data = Tensor::FromInt32(Shape{1, 2, 1, 2}, {64, 64, 64, 64});
  Tensor shift = Tensor::FromInt32(Shape{2}, {1, 3});
  auto out = nn::RightShift(data, shift);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetFlat(0), 32);
  EXPECT_EQ(out->GetFlat(3), 8);
}

TEST(PerChannel, OpInferenceAcceptsChannelVector) {
  Graph g;
  NodeId x = g.AddInput("x", {Shape{1, 4, 3, 3}, DType::kInt32});
  NodeId sh = g.AddConstant(Tensor::FromInt32(Shape{4}, {1, 2, 3, 4}));
  auto ok = g.TryAddOp("right_shift", {x, sh});
  EXPECT_TRUE(ok.ok());
  NodeId bad = g.AddConstant(Tensor::FromInt32(Shape{3}, {1, 2, 3}));
  auto rejected = g.TryAddOp("right_shift", {x, bad});
  EXPECT_FALSE(rejected.ok());
}

TEST(PerChannel, DispatchedToDigitalAndBitExact) {
  Graph net = PerChannelConvGraph(21);
  auto art = compiler::HtvmCompiler{compiler::CompileOptions::DigitalOnly()}
                 .Compile(net);
  ASSERT_TRUE(art.ok()) << art.status().ToString();
  ASSERT_EQ(art->kernels.size(), 1u);
  EXPECT_EQ(art->kernels[0].target, "digital");
  EXPECT_TRUE(art->kernels[0].schedule->spec.requant.per_channel());

  Rng rng(5);
  const Tensor input = Tensor::Random(Shape{1, 8, 12, 12}, DType::kInt8, rng);
  auto report = runtime::VerifyArtifact(*art, net, std::vector<Tensor>{input});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->bit_exact);
}

TEST(PerChannel, TiledSimulationBitExact) {
  Graph net = PerChannelConvGraph(22, 16, 24, 20);
  compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
  opt.tiler.l1_budget_bytes = 3 * 1024;  // force k/c/spatial tiling
  auto art = compiler::HtvmCompiler{opt}.Compile(net);
  ASSERT_TRUE(art.ok());
  ASSERT_GT(art->kernels[0].schedule->steps.size(), 1u);
  Rng rng(6);
  const Tensor input = Tensor::Random(Shape{1, 16, 20, 20}, DType::kInt8, rng);
  auto report = runtime::VerifyArtifact(*art, net, std::vector<Tensor>{input},
                                        /*simulate_tiles=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bit_exact);
}

TEST(PerChannel, CpuEmissionCarriesShiftTable) {
  Graph net = PerChannelConvGraph(23);
  auto art =
      compiler::HtvmCompiler{compiler::CompileOptions::PlainTvm()}.Compile(
          net);
  ASSERT_TRUE(art.ok());
  auto emitted = compiler::EmitArtifactC(*art, "pcq");
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  const std::string& c = emitted->files.at("pcq.c");
  // The shifts are a constant table the fused epilogue indexes by channel.
  EXPECT_NE(c.find("{ const int32_t s = tvm_conv2d_0_k"), std::string::npos)
      << c;
}

TEST(PerChannel, AccelEmissionReportsUnsupported) {
  Graph net = PerChannelConvGraph(24);
  auto art = compiler::HtvmCompiler{compiler::CompileOptions::DigitalOnly()}
                 .Compile(net);
  ASSERT_TRUE(art.ok());
  auto emitted = compiler::EmitArtifactC(*art, "pcq");
  EXPECT_FALSE(emitted.ok());
  EXPECT_EQ(emitted.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace htvm
