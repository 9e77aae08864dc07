// nn.pad op + the AbsorbPadding legalization pass (TFLite imports carry
// explicit PAD ops before stride-2 convolutions; the accelerator patterns
// need the padding on the conv attribute).
#include <gtest/gtest.h>

#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "ir/builder.hpp"
#include "ir/passes.hpp"
#include "nn/interpreter.hpp"
#include "nn/kernels.hpp"
#include "runtime/executor.hpp"

namespace htvm {
namespace {

TEST(Pad, KernelZeroPads) {
  Tensor data = Tensor::FromInt8(Shape{1, 1, 2, 2}, {1, 2, 3, 4});
  auto out = nn::Pad2d(data, {1, 0, 0, 2});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->shape(), (Shape{1, 1, 3, 4}));
  EXPECT_EQ(out->At4(0, 0, 0, 0), 0);  // padded row
  EXPECT_EQ(out->At4(0, 0, 1, 0), 1);
  EXPECT_EQ(out->At4(0, 0, 1, 3), 0);  // padded cols
  EXPECT_EQ(out->At4(0, 0, 2, 1), 4);
}

TEST(Pad, OpInference) {
  Graph g;
  NodeId x = g.AddInput("x", {Shape{1, 3, 10, 10}, DType::kInt8});
  NodeId p = g.AddOp("nn.pad", {x},
                     AttrMap{{"pad_width", std::vector<i64>{0, 1, 1, 0}}});
  EXPECT_EQ(g.node(p).type.shape, (Shape{1, 3, 11, 11}));
  auto bad = g.TryAddOp("nn.pad", {x},
                        AttrMap{{"pad_width", std::vector<i64>{-1, 0, 0, 0}}});
  EXPECT_FALSE(bad.ok());
}

// Builds pad -> conv -> requant the way a TFLite import looks.
Graph PaddedConvGraph(u64 seed) {
  GraphBuilder b(seed);
  NodeId x = b.Input("x", Shape{1, 8, 16, 16});
  Graph& g = b.graph();
  NodeId padded = g.AddOp(
      "nn.pad", {x}, AttrMap{{"pad_width", std::vector<i64>{0, 0, 1, 1}}});
  Rng rng(seed + 1);
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{8, 8, 3, 3}, DType::kInt8, rng), "w");
  NodeId conv = g.AddOp("nn.conv2d", {padded, w},
                        AttrMap{{"strides", std::vector<i64>{2, 2}}});
  NodeId bias = g.AddConstant(Tensor::Random(Shape{8}, DType::kInt32, rng));
  NodeId biased = g.AddOp("nn.bias_add", {conv, bias});
  return b.Finish(b.Requant(biased, 7, true));
}

TEST(AbsorbPadding, FoldsPadIntoConvAttr) {
  Graph g = PaddedConvGraph(3);
  Graph folded = AbsorbPadding(g);
  ASSERT_TRUE(folded.Validate().ok());
  bool saw_pad = false;
  const Node* conv = nullptr;
  for (const Node& n : folded.nodes()) {
    if (n.IsOp("nn.pad")) saw_pad = true;
    if (n.IsOp("nn.conv2d")) conv = &n;
  }
  EXPECT_FALSE(saw_pad);
  ASSERT_NE(conv, nullptr);
  EXPECT_EQ(conv->attrs.GetIntVec("padding"),
            (std::vector<i64>{0, 0, 1, 1}));
}

TEST(AbsorbPadding, PreservesSemantics) {
  Graph g = PaddedConvGraph(7);
  Graph folded = AbsorbPadding(g);
  Rng rng(9);
  const Tensor input = Tensor::Random(Shape{1, 8, 16, 16}, DType::kInt8, rng);
  auto a = nn::RunGraph(g, std::vector<Tensor>{input});
  auto b = nn::RunGraph(folded, std::vector<Tensor>{input});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a.value()[0].SameAs(b.value()[0]));
}

TEST(AbsorbPadding, LeavesSharedPadAlone) {
  // A pad with two consumers cannot be absorbed (one consumer is a pool).
  GraphBuilder b(4);
  NodeId x = b.Input("x", Shape{1, 4, 8, 8});
  Graph& g = b.graph();
  NodeId padded = g.AddOp(
      "nn.pad", {x}, AttrMap{{"pad_width", std::vector<i64>{1, 1, 1, 1}}});
  Rng rng(5);
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{4, 4, 3, 3}, DType::kInt8, rng));
  NodeId conv = g.AddOp("nn.conv2d", {padded, w});
  NodeId conv8 =
      g.AddOp("cast", {conv}, AttrMap{{"dtype", std::string("int8")}});
  NodeId pool = g.AddOp("nn.max_pool2d", {padded},
                        AttrMap{{"pool_size", std::vector<i64>{2, 2}},
                                {"strides", std::vector<i64>{2, 2}}});
  NodeId pool_flat = g.AddOp("nn.flatten", {pool});
  NodeId conv_flat = g.AddOp("nn.flatten", {conv8});
  // Keep both alive via two outputs... single-output graphs only: concat by
  // add on equal-size flattens is overkill; just output the conv path and
  // keep pool alive through it.
  (void)pool_flat;
  g.SetOutputs({conv_flat});
  Graph full = std::move(g);
  // pool_flat is dead but `padded` still has 2 uses at absorb time.
  Graph folded = AbsorbPadding(full);
  bool saw_pad = false;
  for (const Node& n : folded.nodes()) {
    if (n.IsOp("nn.pad")) saw_pad = true;
  }
  EXPECT_TRUE(saw_pad);
}

TEST(AbsorbPadding, PipelineDispatchesPaddedConvToAccelerator) {
  // End-to-end: the TFLite-style pad+conv chain must still reach the
  // digital accelerator (without the pass, the pad would break the match).
  Graph g = PaddedConvGraph(11);
  auto art =
      compiler::HtvmCompiler{compiler::CompileOptions::DigitalOnly()}.Compile(
          g);
  ASSERT_TRUE(art.ok());
  ASSERT_EQ(art->kernels.size(), 1u);
  EXPECT_EQ(art->kernels[0].target, "digital");
}

// conv(3x3, `conv_pad`) -> requant -> max_pool(3x3, stride 2, `pool_pad`).
Graph PaddingFormsGraph(const std::vector<i64>& conv_pad,
                        const std::vector<i64>& pool_pad) {
  GraphBuilder b(21);
  NodeId x = b.Input("x", Shape{1, 4, 8, 8});
  Graph& g = b.graph();
  Rng rng(22);
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{8, 4, 3, 3}, DType::kInt8, rng), "w");
  NodeId conv =
      g.AddOp("nn.conv2d", {x, w}, AttrMap{{"padding", conv_pad}});
  NodeId bias = g.AddConstant(Tensor::Random(Shape{8}, DType::kInt32, rng));
  NodeId y = b.Requant(g.AddOp("nn.bias_add", {conv, bias}), 7, true);
  NodeId pool = g.AddOp("nn.max_pool2d", {y},
                        AttrMap{{"pool_size", std::vector<i64>{3, 3}},
                                {"strides", std::vector<i64>{2, 2}},
                                {"padding", pool_pad}});
  return b.Finish(pool);
}

TEST(PaddingAttr, ShortFormsRunLikeTheFourEntryForm) {
  // [p] and [py, px] mean the same padding as [p, p, p, p] to every reader:
  // the interpreter kernels, the CPU and accelerator compile paths, the tile
  // executor, the C emitter and AbsorbPadding.
  const Graph full = PaddingFormsGraph({1, 1, 1, 1}, {1, 1, 1, 1});
  Rng rng(23);
  const Tensor input = Tensor::Random(Shape{1, 4, 8, 8}, DType::kInt8, rng);
  auto want = nn::RunGraph(full, std::vector<Tensor>{input});
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want.value()[0].shape(), (Shape{1, 8, 4, 4}));
  auto full_c = compiler::EmitArtifactC(
      compiler::HtvmCompiler{compiler::CompileOptions::PlainTvm()}
          .Compile(full)
          .value(),
      "net");
  ASSERT_TRUE(full_c.ok());
  for (const std::vector<i64>& pad :
       {std::vector<i64>{1}, std::vector<i64>{1, 1}}) {
    SCOPED_TRACE(pad.size());
    const Graph g = PaddingFormsGraph(pad, pad);
    auto got = nn::RunGraph(g, std::vector<Tensor>{input});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got.value()[0].SameAs(want.value()[0]));
    bool on_accelerator = false;
    for (const auto& opt : {compiler::CompileOptions::PlainTvm(),
                            compiler::CompileOptions::DigitalOnly()}) {
      auto art = compiler::HtvmCompiler{opt}.Compile(g);
      ASSERT_TRUE(art.ok()) << art.status().ToString();
      for (const auto& k : art->kernels) {
        on_accelerator |= k.target == "digital";
      }
      for (const bool tiles : {false, true}) {
        const runtime::Executor ex(&*art, {.simulate_tiles = tiles});
        auto run = ex.Run(std::vector<Tensor>{input});
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_TRUE(run->outputs[0].SameAs(want.value()[0]));
      }
    }
    EXPECT_TRUE(on_accelerator);  // the DORY layer spec read the padding
    auto emitted = compiler::EmitArtifactC(
        compiler::HtvmCompiler{compiler::CompileOptions::PlainTvm()}
            .Compile(g)
            .value(),
        "net");
    ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
    EXPECT_EQ(emitted->files, full_c->files);
  }

  // AbsorbPadding adds an nn.pad onto a 1-entry conv padding.
  GraphBuilder b(24);
  NodeId x = b.Input("x", Shape{1, 4, 8, 8});
  Graph& g = b.graph();
  NodeId padded = g.AddOp(
      "nn.pad", {x}, AttrMap{{"pad_width", std::vector<i64>{0, 0, 1, 1}}});
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{4, 4, 3, 3}, DType::kInt8, rng), "w");
  NodeId conv = g.AddOp("nn.conv2d", {padded, w},
                        AttrMap{{"padding", std::vector<i64>{1}}});
  Graph folded = AbsorbPadding(b.Finish(conv));
  for (const Node& n : folded.nodes()) {
    if (n.IsOp("nn.conv2d")) {
      EXPECT_EQ(n.attrs.GetIntVec("padding"), (std::vector<i64>{1, 1, 2, 2}));
    }
  }
}

}  // namespace
}  // namespace htvm
