#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "nn/interpreter.hpp"
#include "pattern/rewriter.hpp"
#include "pattern/std_patterns.hpp"

namespace htvm {
namespace {

TEST(Interpreter, RunsConvBlock) {
  GraphBuilder b(1);
  NodeId x = b.Input("x", Shape{1, 4, 6, 6});
  ConvSpec spec;
  spec.out_channels = 8;
  spec = WithSamePadding(spec, 6, 6);
  Graph g = b.Finish(b.ConvBlock(x, spec, "c"));

  Rng rng(2);
  const Tensor input = Tensor::Random(Shape{1, 4, 6, 6}, DType::kInt8, rng);
  auto out = nn::RunGraph(g, std::vector<Tensor>{input});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out.value()[0].shape(), (Shape{1, 8, 6, 6}));
  EXPECT_EQ(out.value()[0].dtype(), DType::kInt8);
  // ReLU: outputs non-negative.
  for (i64 i = 0; i < out.value()[0].NumElements(); ++i) {
    EXPECT_GE(out.value()[0].GetFlat(i), 0);
  }
}

TEST(Interpreter, InputTypeMismatchRejected) {
  GraphBuilder b(1);
  NodeId x = b.Input("x", Shape{1, 4});
  Graph g = b.Finish(b.graph().AddOp("nn.relu", {x}));
  Rng rng(1);
  const Tensor wrong = Tensor::Random(Shape{1, 5}, DType::kInt8, rng);
  auto out = nn::RunGraph(g, std::vector<Tensor>{wrong});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(Interpreter, CompositeBodyExecutesLikeInlineOps) {
  GraphBuilder b(7);
  NodeId x = b.Input("x", Shape{1, 8, 5, 5});
  ConvSpec spec;
  spec.out_channels = 8;
  spec = WithSamePadding(spec, 5, 5);
  Graph g = b.Finish(b.ConvBlock(x, spec, "c"));

  const auto accept = [](const Graph&, const MatchResult&, AttrMap* a) {
    a->Set("target", std::string("cpu"));
    return true;
  };
  Graph p = PartitionGraph(g, {{"fused", ConvChainPattern(), accept, 0}});

  Rng rng(8);
  const Tensor input = Tensor::Random(Shape{1, 8, 5, 5}, DType::kInt8, rng);
  auto plain = nn::RunGraph(g, std::vector<Tensor>{input});
  auto comp = nn::RunGraph(p, std::vector<Tensor>{input});
  ASSERT_TRUE(plain.ok() && comp.ok());
  EXPECT_TRUE(plain.value()[0].SameAs(comp.value()[0]));
}

TEST(Interpreter, ReshapeAndFlattenAreViews) {
  Graph g;
  NodeId x = g.AddInput("x", {Shape{1, 2, 3, 4}, DType::kInt8});
  NodeId f = g.AddOp("nn.flatten", {x});
  g.SetOutputs({f});
  Rng rng(1);
  const Tensor input = Tensor::Random(Shape{1, 2, 3, 4}, DType::kInt8, rng);
  auto out = nn::RunGraph(g, std::vector<Tensor>{input});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0].shape(), (Shape{1, 24}));
  for (i64 i = 0; i < 24; ++i) {
    EXPECT_EQ(out.value()[0].GetFlat(i), input.GetFlat(i));
  }
}

TEST(Interpreter, ResidualAddGraph) {
  GraphBuilder b(5);
  NodeId x = b.Input("x", Shape{1, 4, 4, 4});
  ConvSpec spec;
  spec.out_channels = 4;
  spec.relu = false;
  spec = WithSamePadding(spec, 4, 4);
  NodeId y = b.ConvBlock(x, spec, "c");
  NodeId out = b.AddBlock(x, y, /*relu=*/true, /*shift=*/1);
  Graph g = b.Finish(out);

  Rng rng(6);
  const Tensor input = Tensor::Random(Shape{1, 4, 4, 4}, DType::kInt8, rng);
  auto r = nn::RunGraph(g, std::vector<Tensor>{input});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()[0].shape(), (Shape{1, 4, 4, 4}));
}

}  // namespace
}  // namespace htvm
