#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/serialize.hpp"
#include "models/mlperf_tiny.hpp"
#include "nn/interpreter.hpp"

namespace htvm {
namespace {

void ExpectRoundTrip(const Graph& g, const Shape& in_shape,
                     DType in_dtype = DType::kInt8, u64 seed = 5) {
  const std::string text = SerializeGraph(g);
  auto back = DeserializeGraph(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumNodes(), g.NumNodes());
  // Same function: run both on the same input.
  Rng rng(seed);
  const Tensor input = Tensor::Random(in_shape, in_dtype, rng);
  auto a = nn::RunGraph(g, std::vector<Tensor>{input});
  auto b = nn::RunGraph(*back, std::vector<Tensor>{input});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a.value()[0].SameAs(b.value()[0]));
}

TEST(Serialize, ConvBlockRoundTrip) {
  GraphBuilder b(1);
  NodeId x = b.Input("x", Shape{1, 4, 8, 8});
  ConvSpec spec;
  spec.out_channels = 8;
  spec = WithSamePadding(spec, 8, 8);
  Graph g = b.Finish(b.ConvBlock(x, spec, "conv with space"));
  ExpectRoundTrip(g, Shape{1, 4, 8, 8});
}

TEST(Serialize, ResNetRoundTrip) {
  Graph g = models::BuildResNet8(models::PrecisionPolicy::kInt8);
  ExpectRoundTrip(g, Shape{1, 3, 32, 32});
}

TEST(Serialize, TernaryConstantsSurvive) {
  Graph g = models::BuildToyAdmosDae(models::PrecisionPolicy::kTernary);
  const std::string text = SerializeGraph(g);
  EXPECT_NE(text.find("ternary"), std::string::npos);
  auto back = DeserializeGraph(text);
  ASSERT_TRUE(back.ok());
  i64 ternary_consts = 0;
  for (const Node& n : back->nodes()) {
    if (n.kind == NodeKind::kConstant &&
        n.value.dtype() == DType::kTernary) {
      ++ternary_consts;
    }
  }
  EXPECT_GT(ternary_consts, 0);
}

TEST(Serialize, AttrsOfAllKindsRoundTrip) {
  Graph g;
  NodeId x = g.AddInput("x", {Shape{1, 4, 8, 8}, DType::kInt8});
  NodeId p = g.AddOp("nn.avg_pool2d", {x},
                     AttrMap{{"pool_size", std::vector<i64>{2, 2}},
                             {"strides", std::vector<i64>{2, 2}},
                             {"padding", std::vector<i64>{0, 0, 0, 0}}});
  NodeId c = g.AddOp("cast", {p}, AttrMap{{"dtype", std::string("int8")}});
  g.SetOutputs({c});
  auto back = DeserializeGraph(SerializeGraph(g));
  ASSERT_TRUE(back.ok());
  const Node* cast = nullptr;
  for (const Node& n : back->nodes()) {
    if (n.IsOp("cast")) cast = &n;
  }
  ASSERT_NE(cast, nullptr);
  EXPECT_EQ(cast->attrs.GetString("dtype"), "int8");
}

TEST(Serialize, RejectsGarbage) {
  EXPECT_FALSE(DeserializeGraph("not a graph").ok());
  EXPECT_FALSE(DeserializeGraph("htvm-graph v1\nop nn.bogus 0 0\n").ok());
  EXPECT_FALSE(DeserializeGraph("htvm-graph v1\ninput x int8 1 4\n").ok());
}

TEST(Serialize, RejectsTruncatedConstant) {
  const std::string text =
      "htvm-graph v1\nconst w int8 1 4 1 2 3\noutput 1 0\n";
  EXPECT_FALSE(DeserializeGraph(text).ok());
}

TEST(Serialize, FileRoundTrip) {
  GraphBuilder b(2);
  NodeId x = b.Input("x", Shape{1, 16});
  Graph g = b.Finish(b.DenseBlock(x, 4, /*relu=*/true));
  const std::string path = ::testing::TempDir() + "/htvm_graph.txt";
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto back = LoadGraph(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumNodes(), g.NumNodes());
}

TEST(Serialize, FuzzedInputNeverCrashes) {
  // Random mutations of a valid serialization must be rejected gracefully
  // (or accepted, if the mutation happened to stay valid) — never abort.
  GraphBuilder b(5);
  NodeId x = b.Input("x", Shape{1, 4, 6, 6});
  ConvSpec spec;
  spec.out_channels = 4;
  spec = WithSamePadding(spec, 6, 6);
  Graph g = b.Finish(b.ConvBlock(x, spec, "c"));
  const std::string base = SerializeGraph(g);

  Rng rng(0x5EED);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = base;
    const int mutations = static_cast<int>(rng.UniformInt(1, 8));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, static_cast<i64>(text.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          text[pos] = static_cast<char>(rng.UniformInt(32, 126));
          break;
        case 1:
          text.erase(pos, 1);
          break;
        default:
          text.insert(pos, 1, static_cast<char>(rng.UniformInt(32, 126)));
          break;
      }
    }
    auto result = DeserializeGraph(text);
    if (result.ok()) {
      ++accepted;
      EXPECT_TRUE(result->Validate().ok());
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);  // mutations do break things
  (void)accepted;
}

TEST(Serialize, PadOpRoundTrips) {
  Graph g;
  NodeId x = g.AddInput("x", {Shape{1, 2, 4, 4}, DType::kInt8});
  NodeId p = g.AddOp("nn.pad", {x},
                     AttrMap{{"pad_width", std::vector<i64>{1, 1, 1, 1}}});
  g.SetOutputs({p});
  auto back = DeserializeGraph(SerializeGraph(g));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->node(back->outputs()[0]).type.shape, (Shape{1, 2, 6, 6}));
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  GraphBuilder b(3);
  NodeId x = b.Input("x", Shape{1, 8});
  Graph g = b.Finish(b.graph().AddOp("nn.relu", {x}));
  std::string text = SerializeGraph(g);
  text.insert(text.find('\n') + 1, "# a comment\n\n");
  auto back = DeserializeGraph(text);
  EXPECT_TRUE(back.ok());
}

}  // namespace
}  // namespace htvm
