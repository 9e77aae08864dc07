#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#include "compiler/pipeline.hpp"
#include "ir/builder.hpp"
#include "ir/serialize.hpp"
#include "models/mlperf_tiny.hpp"
#include "nn/interpreter.hpp"
#include "runtime/executor.hpp"

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

TEST(Serialize, InputElementCountIsCapped) {
  // Every dim is in range, but the product would overflow
  // Shape::NumElements's check (an abort), so the loader caps it.
  auto huge = DeserializeGraph(
      "htvm-graph v1\ninput x int8 8 1048576 1048576 1048576 1 1 1 1 1\n"
      "output 1 0\n");
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);
  auto at_cap =
      DeserializeGraph("htvm-graph v1\ninput x int8 2 8192 8192\noutput 1 0\n");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_EQ(at_cap->node(0).type.shape.NumElements(), kMaxTensorElements);
}

TEST(Serialize, BadWindowAttrsAreTypedErrors) {
  // Zero or negative strides and pool sizes, windows that are not exactly
  // two values, bad padding and zero-size conv kernels must fail type
  // inference with a status, not reach an invariant abort.
  const std::string pool_prefix =
      "htvm-graph v1\ninput x int8 4 1 1 4 4\nop nn.max_pool2d 1 0 ";
  for (const char* attrs :
       {"2 pool_size v:2:2:2 strides v:2:0:0", "1 strides v:2:-1:1",
        "1 pool_size v:2:0:2", "1 pool_size v:1:2", "1 strides v:3:1:1:1",
        "1 padding v:3:0:0:0", "1 padding v:1:-1"}) {
    auto g = DeserializeGraph(pool_prefix + attrs + "\noutput 1 1\n");
    ASSERT_FALSE(g.ok()) << attrs;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument) << attrs;
  }
  const std::string conv_prefix =
      "htvm-graph v1\ninput x int8 4 1 1 4 4\n";
  for (const char* rest :
       {"const w int8 4 1 1 0 2\nop nn.conv2d 2 0 1 0\n",
        "const w int8 4 1 1 1 1 3\nop nn.conv2d 2 0 1 1 strides v:2:1:0\n",
        "const w int8 4 1 1 1 1 3\nop nn.conv2d 2 0 1 1 strides v:1:1\n"}) {
    auto g = DeserializeGraph(conv_prefix + rest + "output 1 2\n");
    ASSERT_FALSE(g.ok()) << rest;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument) << rest;
  }
}

// Every copy of `text` with one value of a conv's `padding` or `strides`
// attribute set to INT32_MAX, tagged with the attribute's name.
std::vector<std::pair<std::string, std::string>> Int32MaxConvGeometryMutants(
    const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::vector<std::pair<std::string, std::string>> mutants;
  for (size_t l = 0; l < lines.size(); ++l) {
    if (lines[l].rfind("op nn.conv2d ", 0) != 0) continue;
    for (const std::string attr : {"padding", "strides"}) {
      const size_t at = lines[l].find(" " + attr + " v:");
      if (at == std::string::npos) continue;
      // "v:<count>" is followed by the values, each as ":<int>".
      size_t pos = lines[l].find(':', at + attr.size() + 4);
      while (pos != std::string::npos && lines[l][pos] == ':') {
        const size_t end = lines[l].find_first_of(": ", pos + 1);
        std::vector<std::string> mutated = lines;
        mutated[l].replace(pos + 1,
                           end == std::string::npos ? end : end - pos - 1,
                           "2147483647");
        std::string joined;
        for (const std::string& m : mutated) joined += m + "\n";
        mutants.emplace_back(attr, std::move(joined));
        pos = end;
      }
    }
  }
  return mutants;
}

TEST(Serialize, Int32MaxConvGeometryIsTypedErrorInBoundedTime) {
  // An INT32_MAX conv padding describes an output no SoC can hold, whose
  // tiling would exhaust memory in the compiler, so each such DS-CNN mutant
  // must be a typed error at load. An INT32_MAX stride only shrinks the
  // output to one row or column, so those mutants must load, compile and
  // run (or fail typed) — all quickly, under every deployment configuration.
  struct Config {
    const char* name;
    compiler::CompileOptions options;
    models::PrecisionPolicy policy;
  };
  const Config configs[] = {
      {"tvm", compiler::CompileOptions::PlainTvm(),
       models::PrecisionPolicy::kInt8},
      {"digital", compiler::CompileOptions::DigitalOnly(),
       models::PrecisionPolicy::kInt8},
      {"analog", compiler::CompileOptions::AnalogOnly(),
       models::PrecisionPolicy::kTernary},
      {"mixed", compiler::CompileOptions{}, models::PrecisionPolicy::kMixed},
  };
  for (const Config& config : configs) {
    const auto mutants = Int32MaxConvGeometryMutants(
        SerializeGraph(models::BuildDsCnn(config.policy)));
    // Nine convs, each with four padding and two stride values.
    ASSERT_EQ(mutants.size(), 9u * 6u) << config.name;
    for (size_t i = 0; i < mutants.size(); ++i) {
      const auto& [attr, text] = mutants[i];
      SCOPED_TRACE(std::string(config.name) + " mutant " + std::to_string(i) +
                   " (" + attr + ")");
      const auto start = std::chrono::steady_clock::now();
      auto graph = DeserializeGraph(text);
      if (attr == "padding") {
        ASSERT_FALSE(graph.ok());
        EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(graph.status().message().find("exceeds"), std::string::npos)
            << graph.status().ToString();
        continue;
      }
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      auto artifact = compiler::HtvmCompiler{config.options}.Compile(*graph);
      if (artifact.ok()) {
        Rng rng(i);
        std::vector<Tensor> inputs;
        for (NodeId id : graph->inputs()) {
          const TensorType& t = graph->node(id).type;
          inputs.push_back(Tensor::Random(t.shape, t.dtype, rng));
        }
        for (const bool tiles : {false, true}) {
          runtime::Executor executor(&*artifact, {.simulate_tiles = tiles});
          auto run = executor.Run(inputs);
          EXPECT_TRUE(run.ok()) << run.status().ToString();
        }
      } else {
        EXPECT_NE(artifact.status().code(), StatusCode::kInternal)
            << artifact.status().ToString();
      }
      EXPECT_LT(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count(),
                5.0);
    }
  }
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
