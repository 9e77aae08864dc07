#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/map_graph.hpp"
#include "ir/passes.hpp"
#include "nn/interpreter.hpp"

namespace htvm {
namespace {

TEST(Dce, DropsUnreachableNodes) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1, 4}, DType::kInt8});
  NodeId used = g.AddOp("nn.relu", {a});
  g.AddOp("nn.relu", {a});  // dead
  Rng rng(1);
  g.AddConstant(Tensor::Random(Shape{3}, DType::kInt8, rng));  // dead
  g.SetOutputs({used});
  Graph out = DeadCodeElimination(g);
  EXPECT_EQ(out.NumNodes(), 2);
  EXPECT_TRUE(out.Validate().ok());
}

TEST(Dce, KeepsUnusedGraphInputs) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1}, DType::kInt8});
  g.AddInput("unused", {Shape{1}, DType::kInt8});
  NodeId r = g.AddOp("nn.relu", {a});
  g.SetOutputs({r});
  Graph out = DeadCodeElimination(g);
  EXPECT_EQ(out.inputs().size(), 2u);  // calling convention preserved
}

TEST(ConstantFold, FoldsConstantChain) {
  Graph g;
  NodeId c = g.AddConstant(Tensor::FromInt32(Shape{1}, {640}));
  NodeId s = g.AddConstant(Tensor::FromInt32(Shape{1}, {4}));
  NodeId shifted = g.AddOp("right_shift", {c, s});
  NodeId in = g.AddInput("x", {Shape{1}, DType::kInt32});
  NodeId sum = g.AddOp("add", {in, shifted});
  g.SetOutputs({sum});

  Graph folded = nn::ConstantFold(g);
  // The right_shift collapses into one constant: input + const + add = 3.
  EXPECT_EQ(folded.NumNodes(), 3);
  i64 const_val = -1;
  for (const Node& n : folded.nodes()) {
    if (n.kind == NodeKind::kConstant) const_val = n.value.GetFlat(0);
    EXPECT_NE(n.op, "right_shift");
  }
  EXPECT_EQ(const_val, 40);
}

TEST(ConstantFold, PreservesSemantics) {
  // Fold a graph and check the folded graph computes the same function.
  GraphBuilder b(3);
  NodeId x = b.Input("x", Shape{1, 4, 6, 6});
  ConvSpec spec;
  spec.out_channels = 4;
  spec = WithSamePadding(spec, 6, 6);
  NodeId y = b.ConvBlock(x, spec, "c");
  Graph g = b.Finish(y);

  Graph folded = nn::ConstantFold(g);
  Rng rng(5);
  const Tensor input = Tensor::Random(Shape{1, 4, 6, 6}, DType::kInt8, rng);
  auto ref = nn::RunGraph(g, std::vector<Tensor>{input});
  auto opt = nn::RunGraph(folded, std::vector<Tensor>{input});
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(opt.ok());
  EXPECT_TRUE(ref.value()[0].SameAs(opt.value()[0]));
}

TEST(ConstantFold, LeavesNonConstOpsAlone) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1, 4}, DType::kInt8});
  NodeId r = g.AddOp("nn.relu", {a});
  g.SetOutputs({r});
  Graph folded = nn::ConstantFold(g);
  EXPECT_EQ(folded.NumNodes(), 2);
}

TEST(MapGraph, IdentityClonePreservesStructure) {
  GraphBuilder b(7);
  NodeId x = b.Input("x", Shape{1, 4, 8, 8});
  ConvSpec spec;
  spec.out_channels = 8;
  spec = WithSamePadding(spec, 8, 8);
  Graph g = b.Finish(b.ConvBlock(x, spec, "c"));

  Graph copy = ir::MapGraph(
      g, [](ir::GraphMapper& m, const Node& n) { return m.Clone(n); });
  EXPECT_EQ(GraphToString(copy), GraphToString(g));
  EXPECT_TRUE(copy.Validate().ok());
}

TEST(MapGraph, DroppedNodesCompactIdsAndFillRemapTable) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1}, DType::kInt8});
  g.AddOp("nn.relu", {a});  // dead, dropped by the callback
  NodeId live = g.AddOp("nn.relu", {a});
  g.SetOutputs({live});

  std::vector<NodeId> remap;
  Graph out = ir::MapGraph(
      g,
      [&](ir::GraphMapper& m, const Node& n) {
        return n.id == 1 ? kInvalidNode : m.Clone(n);
      },
      &remap);
  EXPECT_EQ(out.NumNodes(), 2);
  EXPECT_EQ(remap, (std::vector<NodeId>{0, kInvalidNode, 1}));
  EXPECT_TRUE(out.Validate().ok());
}

TEST(MapGraph, CallbackCanInsertNodes) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1, 4}, DType::kInt8});
  NodeId r = g.AddOp("nn.relu", {a});
  g.SetOutputs({r});

  // Clamp every int8 input, the InsertAnalogInputClamps shape.
  Graph out = ir::MapGraph(g, [](ir::GraphMapper& m, const Node& n) {
    if (n.kind != NodeKind::kInput) return m.Clone(n);
    const NodeId in = m.out().AddInput(n.name, n.type);
    return m.out().AddOp(
        "clip", {in}, AttrMap{{"a_min", i64{-64}}, {"a_max", i64{63}}});
  });
  EXPECT_EQ(out.NumNodes(), g.NumNodes() + 1);
  EXPECT_TRUE(out.Validate().ok());
  EXPECT_TRUE(out.node(1).IsOp("clip"));
}

TEST(RebuildGraph, RemapsIdsCompactly) {
  Graph g;
  NodeId a = g.AddInput("a", {Shape{1}, DType::kInt8});
  NodeId dead = g.AddOp("nn.relu", {a});
  NodeId live = g.AddOp("nn.relu", {a});
  (void)dead;
  g.SetOutputs({live});
  std::vector<bool> keep(static_cast<size_t>(g.NumNodes()), true);
  keep[1] = false;  // drop `dead`
  std::vector<NodeId> remap;
  Graph out = RebuildGraph(g, keep, &remap);
  EXPECT_EQ(out.NumNodes(), 2);
  EXPECT_EQ(remap[0], 0);
  EXPECT_EQ(remap[1], kInvalidNode);
  EXPECT_EQ(remap[2], 1);
}

}  // namespace
}  // namespace htvm
