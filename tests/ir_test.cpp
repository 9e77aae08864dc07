#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/graph.hpp"

namespace htvm {
namespace {

Graph MakeConvGraph() {
  Graph g;
  NodeId in = g.AddInput("x", {Shape{1, 3, 8, 8}, DType::kInt8});
  Rng rng(1);
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{16, 3, 3, 3}, DType::kInt8, rng), "w");
  NodeId conv = g.AddOp("nn.conv2d", {in, w},
                        AttrMap{{"strides", std::vector<i64>{1, 1}},
                                {"padding", std::vector<i64>{1, 1, 1, 1}},
                                {"groups", i64{1}}});
  g.SetOutputs({conv});
  return g;
}

TEST(Op, Conv2dInference) {
  Graph g = MakeConvGraph();
  const Node& conv = g.node(g.outputs()[0]);
  EXPECT_EQ(conv.type.shape, (Shape{1, 16, 8, 8}));
  EXPECT_EQ(conv.type.dtype, DType::kInt32);
}

TEST(Op, Conv2dStrideAndPad) {
  Graph g;
  NodeId in = g.AddInput("x", {Shape{1, 8, 32, 32}, DType::kInt8});
  Rng rng(1);
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{8, 8, 3, 3}, DType::kInt8, rng));
  NodeId conv = g.AddOp("nn.conv2d", {in, w},
                        AttrMap{{"strides", std::vector<i64>{2, 2}},
                                {"padding", std::vector<i64>{0, 0, 1, 1}}});
  // (32 + 0 + 1 - 3) / 2 + 1 = 16 in both dims.
  EXPECT_EQ(g.node(conv).type.shape, (Shape{1, 8, 16, 16}));
}

TEST(Op, Conv2dRejectsChannelMismatch) {
  Graph g;
  NodeId in = g.AddInput("x", {Shape{1, 3, 8, 8}, DType::kInt8});
  Rng rng(1);
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{16, 4, 3, 3}, DType::kInt8, rng));
  auto r = g.TryAddOp("nn.conv2d", {in, w});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Op, DepthwiseConvInference) {
  Graph g;
  NodeId in = g.AddInput("x", {Shape{1, 16, 10, 10}, DType::kInt8});
  Rng rng(1);
  NodeId w = g.AddConstant(
      Tensor::Random(Shape{16, 1, 3, 3}, DType::kInt8, rng));
  NodeId conv = g.AddOp("nn.conv2d", {in, w},
                        AttrMap{{"groups", i64{16}},
                                {"padding", std::vector<i64>{1, 1, 1, 1}}});
  EXPECT_EQ(g.node(conv).type.shape, (Shape{1, 16, 10, 10}));
}

TEST(Op, DenseInference) {
  Graph g;
  NodeId in = g.AddInput("x", {Shape{1, 64}, DType::kInt8});
  Rng rng(1);
  NodeId w = g.AddConstant(Tensor::Random(Shape{10, 64}, DType::kInt8, rng));
  NodeId d = g.AddOp("nn.dense", {in, w});
  EXPECT_EQ(g.node(d).type.shape, (Shape{1, 10}));
  EXPECT_EQ(g.node(d).type.dtype, DType::kInt32);
}

TEST(Op, MatmulAccumulatesInInt32ForInt8AndTernaryWeights) {
  for (const DType wt : {DType::kInt8, DType::kTernary}) {
    Graph g;
    NodeId in = g.AddInput("x", {Shape{2, 3, 8}, DType::kInt8});
    Rng rng(1);
    NodeId w = g.AddConstant(Tensor::Random(Shape{5, 8}, wt, rng));
    NodeId mm = g.AddOp("matmul", {in, w}, AttrMap{{"transpose_b", i64{1}}});
    EXPECT_EQ(g.node(mm).type.shape, (Shape{2, 3, 5}));
    EXPECT_EQ(g.node(mm).type.dtype, DType::kInt32) << DTypeName(wt);
  }
}

TEST(Op, AddPromotesInt8ToInt32) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1, 4}, DType::kInt8});
  NodeId b = g.AddInput("b", {Shape{1, 4}, DType::kInt8});
  NodeId s = g.AddOp("add", {a, b});
  EXPECT_EQ(g.node(s).type.dtype, DType::kInt32);
}

TEST(Op, CastReadsDtypeAttr) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{4}, DType::kInt32});
  NodeId c = g.AddOp("cast", {a}, AttrMap{{"dtype", std::string("int8")}});
  EXPECT_EQ(g.node(c).type.dtype, DType::kInt8);
}

TEST(Op, ReshapeInfersMinusOne) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1, 2, 3, 4}, DType::kInt8});
  NodeId r = g.AddOp("reshape", {a},
                     AttrMap{{"new_shape", std::vector<i64>{1, -1}}});
  EXPECT_EQ(g.node(r).type.shape, (Shape{1, 24}));
}

TEST(Op, PoolingInference) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1, 8, 16, 16}, DType::kInt8});
  NodeId p = g.AddOp("nn.avg_pool2d", {a},
                     AttrMap{{"pool_size", std::vector<i64>{2, 2}},
                             {"strides", std::vector<i64>{2, 2}}});
  EXPECT_EQ(g.node(p).type.shape, (Shape{1, 8, 8, 8}));
  NodeId gp = g.AddOp("nn.global_avg_pool2d", {a});
  EXPECT_EQ(g.node(gp).type.shape, (Shape{1, 8, 1, 1}));
}

// The pool kernels reduce in i64, so float32 pooling is a type error that
// names the op rather than a silently truncated result.
TEST(Op, PoolingRejectsFloat32) {
  Graph g;
  const NodeId a = g.AddInput("a", {Shape{1, 2, 4, 4}, DType::kFloat32});
  for (const std::string op :
       {"nn.avg_pool2d", "nn.max_pool2d", "nn.global_avg_pool2d"}) {
    auto r = g.TryAddOp(op, {a});
    ASSERT_FALSE(r.ok()) << op;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << op;
    EXPECT_NE(r.status().message().find(op), std::string::npos)
        << r.status().ToString();
  }
}

// Walks the vocabulary ir/op.hpp lists: every op resolves with its arity,
// the wrong input count is InvalidArgument, and a name outside the table
// is NotFound.
TEST(Op, TableHoldsTheListedVocabulary) {
  const std::pair<std::string, int> listed[] = {
      {"nn.conv2d", 2},      {"nn.dense", 2},         {"nn.bias_add", 2},
      {"right_shift", 2},    {"clip", 1},             {"cast", 1},
      {"nn.relu", 1},        {"add", 2},              {"nn.avg_pool2d", 1},
      {"nn.max_pool2d", 1},  {"nn.global_avg_pool2d", 1},
      {"nn.softmax", 1},     {"matmul", 2},           {"transpose", 1},
      {"nn.layernorm", 1},   {"nn.gelu", 1},          {"reshape", 1},
      {"nn.flatten", 1},     {"nn.pad", 1}};
  Graph g;
  const NodeId a = g.AddInput("a", {Shape{1, 4}, DType::kInt8});
  for (const auto& [name, arity] : listed) {
    const OpDef* def = FindOp(name);
    ASSERT_NE(def, nullptr) << name;
    EXPECT_EQ(def->name, name);
    EXPECT_EQ(OpName(def->id), name);
    EXPECT_EQ(def->arity, arity) << name;
    // One input too many for a unary op, one too few for a binary one.
    const std::vector<NodeId> wrong(static_cast<size_t>(3 - arity), a);
    auto r = g.TryAddOp(name, wrong);
    ASSERT_FALSE(r.ok()) << name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(r.status().message().find("expects"), std::string::npos)
        << r.status().ToString();
  }
  EXPECT_EQ(FindOp("nn.made_up"), nullptr);
  EXPECT_EQ(g.TryAddOp("nn.made_up", {a}).status().code(),
            StatusCode::kNotFound);
  // Every id names one row, and the name leads back to the id.
  EXPECT_EQ(static_cast<size_t>(kNumOps), std::size(listed));
  for (int i = 0; i < kNumOps; ++i) {
    const OpId id = static_cast<OpId>(i);
    const OpDef* def = FindOp(OpName(id));
    ASSERT_NE(def, nullptr) << i;
    EXPECT_EQ(def->id, id) << OpName(id);
  }
  // TryAddOp records the row on the node.
  auto relu = g.TryAddOp("nn.relu", {a});
  ASSERT_TRUE(relu.ok());
  EXPECT_TRUE(g.node(*relu).Is(OpId::kRelu));
  EXPECT_FALSE(g.node(a).Is(OpId::kConv2d));
}

TEST(Graph, ValidatePassesOnWellFormed) {
  Graph g = MakeConvGraph();
  EXPECT_TRUE(g.Validate().ok());
}

TEST(Graph, ValidateFailsWithoutOutputs) {
  Graph g;
  g.AddInput("x", {Shape{1}, DType::kInt8});
  EXPECT_FALSE(g.Validate().ok());
}

TEST(Graph, UseCounts) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1, 4}, DType::kInt8});
  NodeId s = g.AddOp("add", {a, a});
  g.SetOutputs({s});
  const auto uses = g.UseCounts();
  EXPECT_EQ(uses[static_cast<size_t>(a)], 2);
  EXPECT_EQ(uses[static_cast<size_t>(s)], 1);  // the graph output
}

TEST(Graph, UnknownOpRejected) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1}, DType::kInt8});
  auto r = g.TryAddOp("nn.made_up", {a});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Builder, ConvBlockEmitsListing1Chain) {
  GraphBuilder b(1);
  NodeId x = b.Input("x", Shape{1, 8, 8, 8});
  ConvSpec spec;
  spec.out_channels = 16;
  spec = WithSamePadding(spec, 8, 8);
  NodeId out = b.ConvBlock(x, spec, "c");
  Graph g = b.Finish(out);
  // Chain: conv2d, bias_add, right_shift, clip, cast, clip(relu).
  std::vector<std::string> ops;
  for (const Node& n : g.nodes()) {
    if (n.kind == NodeKind::kOp) ops.push_back(n.op);
  }
  EXPECT_EQ(ops, (std::vector<std::string>{"nn.conv2d", "nn.bias_add",
                                           "right_shift", "clip", "cast",
                                           "clip"}));
  EXPECT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.node(out).type.dtype, DType::kInt8);
}

TEST(Builder, SamePaddingPreservesSpatialDims) {
  ConvSpec spec;
  spec.kernel_h = spec.kernel_w = 3;
  spec = WithSamePadding(spec, 32, 32);
  EXPECT_EQ(spec.pad_t + spec.pad_b, 2);
  EXPECT_EQ(spec.pad_l + spec.pad_r, 2);
  ConvSpec s2;
  s2.kernel_h = s2.kernel_w = 3;
  s2.stride_h = s2.stride_w = 2;
  s2 = WithSamePadding(s2, 32, 32);
  // TF SAME stride 2: out 16 = (32 + pads - 3)/2 + 1 -> pads = 1
  EXPECT_EQ((32 + s2.pad_t + s2.pad_b - 3) / 2 + 1, 16);
}

TEST(Printer, MentionsOpsAndOutputs) {
  Graph g = MakeConvGraph();
  const std::string text = GraphToString(g);
  EXPECT_NE(text.find("nn.conv2d"), std::string::npos);
  EXPECT_NE(text.find("outputs:"), std::string::npos);
}

}  // namespace
}  // namespace htvm
