#include <gtest/gtest.h>

#include <algorithm>
#include <climits>

#include "compiler/pipeline.hpp"
#include "ir/builder.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "nn/interpreter.hpp"
#include "runtime/executor.hpp"
#include "runtime/verify.hpp"

namespace htvm::runtime {
namespace {

using compiler::CompileOptions;
using compiler::HtvmCompiler;

TEST(Executor, DigitalConvBitExactVsReference) {
  models::ConvLayerParams p;
  p.c = 16;
  p.k = 16;
  Graph g = models::MakeConvLayerGraph(p);
  auto art = HtvmCompiler{CompileOptions::DigitalOnly()}.Compile(g);
  ASSERT_TRUE(art.ok());
  Rng rng(1);
  const Tensor input = Tensor::Random(Shape{1, 16, 32, 32}, DType::kInt8, rng);
  auto report = VerifyArtifact(*art, g, std::vector<Tensor>{input});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bit_exact);
}

TEST(Executor, TiledSimulationMatchesInterpreterPath) {
  models::ConvLayerParams p;
  p.c = 32;
  p.k = 32;
  p.iy = p.ix = 24;
  CompileOptions opt = CompileOptions::DigitalOnly();
  opt.tiler.l1_budget_bytes = 4 * 1024;  // force real tiling
  Graph g = models::MakeConvLayerGraph(p);
  auto art = HtvmCompiler{opt}.Compile(g);
  ASSERT_TRUE(art.ok());
  ASSERT_GT(art->kernels[0].schedule->steps.size(), 1u);

  Rng rng(2);
  const Tensor input = Tensor::Random(Shape{1, 32, 24, 24}, DType::kInt8, rng);
  Executor fast(&*art, {.simulate_tiles = false});
  Executor tiled(&*art, {.simulate_tiles = true});
  auto a = fast.Run(std::vector<Tensor>{input});
  auto b = tiled.Run(std::vector<Tensor>{input});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->outputs[0].SameAs(b->outputs[0]));
}

// Sets every bias_add constant of `g` to `bias`.
void SetBiases(Graph& g, i32 bias) {
  for (const Node& n : g.nodes()) {
    if (!n.IsOp("nn.bias_add")) continue;
    for (i32& v : g.mutable_node(n.inputs[1]).value.data<i32>()) v = bias;
  }
}

// When accumulator + bias leaves int32, the tiles wrap it like nn.bias_add
// (and the emitted C) do: interpreter == tiles for every offloaded kind,
// with biases near both ends of int32 and a schedule split over c-tiles.
TEST(Executor, TilesWrapBiasOverflowLikeInterpreter) {
  struct Case {
    const char* name;
    Graph graph;
    i64 l1_budget;      // 0: the default budget
    bool split_c;       // the schedule must continue partial sums
  };
  const auto conv = [](i64 c, i64 k, i64 hw, bool dw) {
    models::ConvLayerParams p;
    p.c = c;
    p.k = k;
    p.iy = p.ix = hw;
    p.depthwise = dw;
    p.shift = 20;
    return models::MakeConvLayerGraph(p);
  };
  const auto dense = [] {
    GraphBuilder b(3);
    const NodeId x = b.Input("data", Shape{1, 96});
    return b.Finish(b.DenseBlock(x, 24, /*relu=*/true, /*shift=*/20));
  };
  const auto matmul = [] {
    GraphBuilder b(4);
    const NodeId x = b.Input("data", Shape{8, 64});
    return b.Finish(b.MatmulBlock(x, 32, /*relu=*/true, /*shift=*/20));
  };
  for (const i32 bias : {INT32_MAX - 100, INT32_MIN + 100}) {
    Case cases[] = {{"conv", conv(8, 8, 8, false), 0, false},
                    {"conv c-split", conv(64, 16, 10, false), 3 * 1024, true},
                    {"depthwise", conv(32, 32, 16, true), 2 * 1024, false},
                    {"dense", dense(), 0, false},
                    {"matmul", matmul(), 0, false}};
    for (Case& c : cases) {
      SCOPED_TRACE(testing::Message() << c.name << " bias " << bias);
      SetBiases(c.graph, bias);
      CompileOptions opt = CompileOptions::DigitalOnly();
      if (c.l1_budget > 0) opt.tiler.l1_budget_bytes = c.l1_budget;
      auto art = HtvmCompiler{opt}.Compile(c.graph);
      ASSERT_TRUE(art.ok()) << art.status().ToString();
      ASSERT_EQ(art->kernels.size(), 1u);
      ASSERT_TRUE(art->kernels[0].schedule.has_value());
      const auto& steps = art->kernels[0].schedule->steps;
      EXPECT_EQ(c.split_c, std::any_of(steps.begin(), steps.end(),
                                       [](const auto& s) {
                                         return !s.first_c;
                                       }));
      Rng rng(8);
      const TensorType& in =
          c.graph.node(c.graph.inputs()[0]).type;
      const Tensor input = Tensor::Random(in.shape, DType::kInt8, rng);
      auto report = VerifyArtifact(*art, c.graph, std::vector<Tensor>{input},
                                   /*simulate_tiles=*/true);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->bit_exact) << report->mismatched_elements << " of "
                                     << report->total_elements << " differ";
    }
  }
}

TEST(Executor, AnalogDiffersButBounded) {
  models::ConvLayerParams p;
  p.weight_dtype = DType::kTernary;
  Graph g = models::MakeConvLayerGraph(p);
  auto art = HtvmCompiler{CompileOptions::AnalogOnly()}.Compile(g);
  ASSERT_TRUE(art.ok());
  Rng rng(3);
  const Tensor input = Tensor::Random(Shape{1, 16, 32, 32}, DType::kInt8, rng);
  auto report = VerifyArtifact(*art, g, std::vector<Tensor>{input});
  ASSERT_TRUE(report.ok());
  // 7-bit input clamping makes analog execution approximate.
  EXPECT_FALSE(report->bit_exact);
  EXPECT_GT(report->total_elements, 0);
}

TEST(Executor, OomArtifactRefusesToRun) {
  Graph net = models::BuildMobileNetV1(models::PrecisionPolicy::kInt8);
  auto art = HtvmCompiler{CompileOptions::PlainTvm()}.Compile(net);
  ASSERT_TRUE(art.ok());
  ASSERT_FALSE(art->memory_plan.fits);
  Executor ex(&*art);
  Rng rng(4);
  const Tensor input = Tensor::Random(Shape{1, 3, 96, 96}, DType::kInt8, rng);
  auto result = ex.Run(std::vector<Tensor>{input});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Executor, LatencyMatchesArtifactTotals) {
  Graph net = models::BuildToyAdmosDae(models::PrecisionPolicy::kInt8);
  auto art = HtvmCompiler{CompileOptions::DigitalOnly()}.Compile(net);
  ASSERT_TRUE(art.ok());
  Executor ex(&*art);
  Rng rng(5);
  const Tensor input = Tensor::Random(Shape{1, 640}, DType::kInt8, rng);
  auto result = ex.Run(std::vector<Tensor>{input});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Cycles are static per artifact: the profile, not the run, carries them.
  const hw::RunProfile profile = art->Profile();
  EXPECT_EQ(profile.TotalFullCycles(), art->TotalFullCycles());
  EXPECT_GT(art->LatencyMs(), 0.0);
  EXPECT_EQ(profile.kernels.size(), art->kernels.size());
}

TEST(Executor, EndToEndResNetDigitalBitExact) {
  Graph net = models::BuildResNet8(models::PrecisionPolicy::kInt8);
  auto art = HtvmCompiler{CompileOptions::DigitalOnly()}.Compile(net);
  ASSERT_TRUE(art.ok());
  Rng rng(6);
  const Tensor input = Tensor::Random(Shape{1, 3, 32, 32}, DType::kInt8, rng);
  auto report = VerifyArtifact(*art, net, std::vector<Tensor>{input});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->bit_exact) << report->mismatched_elements << " of "
                                 << report->total_elements << " differ";
}

TEST(Executor, EndToEndResNetTiledSimulationBitExact) {
  Graph net = models::BuildResNet8(models::PrecisionPolicy::kInt8);
  auto art = HtvmCompiler{CompileOptions::DigitalOnly()}.Compile(net);
  ASSERT_TRUE(art.ok());
  Rng rng(7);
  const Tensor input = Tensor::Random(Shape{1, 3, 32, 32}, DType::kInt8, rng);
  auto report = VerifyArtifact(*art, net, std::vector<Tensor>{input},
                               /*simulate_tiles=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bit_exact);
}

// A wrong input count, shape or dtype is a typed error on both paths. The
// tiled path indexes its input by the layer geometry, so an unchecked shape
// would abort inside a tile.
TEST(Executor, InputMismatchRejectedOnBothPaths) {
  Graph net = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  auto art = HtvmCompiler{CompileOptions{}}.Compile(net);
  ASSERT_TRUE(art.ok());
  const TensorType& param =
      art->kernel_graph.node(art->kernel_graph.inputs()[0]).type;
  const std::vector<Tensor> bad_inputs[] = {
      {},
      {Tensor(Shape{1, 12}, param.dtype)},
      {Tensor(param.shape, DType::kInt32)},
  };
  for (const bool simulate_tiles : {false, true}) {
    const Executor ex(&*art, {.simulate_tiles = simulate_tiles});
    for (const std::vector<Tensor>& inputs : bad_inputs) {
      auto result = ex.Run(inputs);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << result.status().ToString();
    }
  }
}

}  // namespace
}  // namespace htvm::runtime
