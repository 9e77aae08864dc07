#include <gtest/gtest.h>

#include "hw/cpu.hpp"
#include "ir/builder.hpp"
#include "nn/interpreter.hpp"
#include "tvmgen/binary_size.hpp"
#include "tvmgen/cost_model.hpp"
#include "tvmgen/fusion.hpp"

namespace htvm::tvmgen {
namespace {

Graph SmallNet() {
  GraphBuilder b(1);
  NodeId x = b.Input("x", Shape{1, 4, 8, 8});
  ConvSpec spec;
  spec.out_channels = 8;
  spec = WithSamePadding(spec, 8, 8);
  NodeId y = b.ConvBlock(x, spec, "c1");
  y = b.GlobalAvgPool(y);
  y = b.Flatten(y);
  y = b.DenseBlock(y, 4, /*relu=*/false, 6, DType::kInt8, "fc");
  y = b.Softmax(y);
  return b.Finish(y);
}

TEST(Fusion, LowerLeavesOnlyKernels) {
  Graph lowered = LowerToKernels(SmallNet());
  i64 composites = 0;
  for (const Node& n : lowered.nodes()) {
    EXPECT_NE(n.kind, NodeKind::kOp);
    if (n.kind == NodeKind::kComposite) {
      ++composites;
      EXPECT_EQ(n.attrs.GetString("target"), "cpu");
    }
  }
  // conv chain, pool, flatten, dense chain, softmax.
  EXPECT_EQ(composites, 5);
}

TEST(Fusion, PreservesSemantics) {
  Graph g = SmallNet();
  Graph lowered = LowerToKernels(g);
  Rng rng(3);
  const Tensor input = Tensor::Random(Shape{1, 4, 8, 8}, DType::kInt8, rng);
  auto ref = nn::RunGraph(g, std::vector<Tensor>{input});
  auto low = nn::RunGraph(lowered, std::vector<Tensor>{input});
  ASSERT_TRUE(ref.ok() && low.ok());
  EXPECT_TRUE(ref.value()[0].SameAs(low.value()[0]));
}

TEST(Fusion, ChainsBecomeSingleKernels) {
  Graph lowered = LowerToKernels(SmallNet());
  bool saw_conv_chain = false;
  for (const Node& n : lowered.nodes()) {
    if (n.kind == NodeKind::kComposite && n.op == "tvm.conv2d") {
      saw_conv_chain = true;
      i64 ops = 0;
      for (const Node& bn : n.body->nodes()) {
        if (bn.kind == NodeKind::kOp) ++ops;
      }
      EXPECT_GE(ops, 5);  // conv + bias + shift + clip + cast (+ relu clip)
    }
  }
  EXPECT_TRUE(saw_conv_chain);
}

TEST(CostModel, FusedEpilogueCheaperThanStandalone) {
  Graph lowered = LowerToKernels(SmallNet());
  const hw::DianaConfig cfg;
  for (const Node& n : lowered.nodes()) {
    if (n.kind != NodeKind::kComposite || n.op != "tvm.conv2d") continue;
    const i64 fused = CpuCompositeCycles(cfg.cpu, n);
    // Unfused estimate: every body op standalone.
    i64 unfused = cfg.cpu.kernel_overhead_cycles;
    for (const Node& bn : n.body->nodes()) {
      if (bn.kind == NodeKind::kOp) {
        unfused += hw::CpuOpCycles(cfg.cpu, *n.body, bn) +
                   cfg.cpu.kernel_overhead_cycles;
      }
    }
    EXPECT_LT(fused, unfused);
  }
}

TEST(CostModel, PerfCountsMacs) {
  Graph lowered = LowerToKernels(SmallNet());
  const hw::DianaConfig cfg;
  i64 total_macs = 0;
  for (const Node& n : lowered.nodes()) {
    if (n.kind != NodeKind::kComposite) continue;
    total_macs += CpuCompositePerf(cfg, n, "k").macs;
  }
  // conv: 8*4*8*8*9, dense: 4*8
  EXPECT_EQ(total_macs, 8 * 4 * 8 * 8 * 9 + 4 * 8);
}

TEST(BinarySize, ConvKernelBiggerThanElemwise) {
  Graph lowered = LowerToKernels(SmallNet());
  i64 conv_code = 0, softmax_code = 0;
  for (const Node& n : lowered.nodes()) {
    if (n.kind != NodeKind::kComposite) continue;
    if (n.op == "tvm.conv2d") conv_code = CpuKernelCodeBytes(n);
    if (n.op == "tvm.nn.softmax") softmax_code = CpuKernelCodeBytes(n);
  }
  EXPECT_GT(conv_code, 0);
  EXPECT_GT(softmax_code, 0);
  EXPECT_GT(conv_code, softmax_code);
}

TEST(BinarySize, WeightBytesMatchConstants) {
  Graph lowered = LowerToKernels(SmallNet());
  i64 weights = 0;
  for (const Node& n : lowered.nodes()) {
    if (n.kind == NodeKind::kComposite) weights += CpuKernelWeightBytes(n);
  }
  // conv: 8*4*9 int8 + 8 int32 bias + shift; dense: 4*8 + 4 int32 + shift.
  EXPECT_GE(weights, 8 * 4 * 9 + 8 * 4 + 4 * 8 + 4 * 4);
}

TEST(BinarySize, AccelKernelsAreSmall) {
  EXPECT_LT(AccelKernelCodeBytes(/*tiled=*/true), kSizeModel.cpu_conv_code);
  EXPECT_LT(AccelKernelCodeBytes(false), AccelKernelCodeBytes(true));
}

TEST(BinarySize, ReportTotals) {
  BinarySizeReport r;
  r.runtime_bytes = 100;
  r.code_bytes = 200;
  r.weight_bytes = 300;
  EXPECT_EQ(r.Total(), 600);
  EXPECT_NE(r.ToString().find("total"), std::string::npos);
}

}  // namespace
}  // namespace htvm::tvmgen
