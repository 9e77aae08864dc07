// C code emission tests: structural checks on generated kernels, and an
// end-to-end proof that an emitted CPU-only deployment compiles with the
// host C compiler and computes bit-exactly what the reference interpreter
// computes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "dory/c_codegen.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "nn/interpreter.hpp"
#include "support/string_utils.hpp"

namespace htvm {
namespace {

using compiler::CompileOptions;
using compiler::EmitArtifactC;
using compiler::HtvmCompiler;

compiler::Artifact MustCompile(const Graph& g, const CompileOptions& opt) {
  auto art = HtvmCompiler{opt}.Compile(g);
  HTVM_CHECK_MSG(art.ok(), "compile failed");
  return std::move(art.value());
}

TEST(AccelCodegen, ConvKernelStructure) {
  models::ConvLayerParams p;
  p.c = 32;
  p.k = 32;
  p.iy = p.ix = 32;
  CompileOptions opt = CompileOptions::DigitalOnly();
  opt.tiler.l1_budget_bytes = 16 * 1024;  // force tiling
  const auto art = MustCompile(models::MakeConvLayerGraph(p), opt);
  auto emitted = EmitArtifactC(art, "convnet");
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  const std::string& c = emitted->files.at("convnet.c");
  // Tile loop nest, DMA programming, driver call, weight offset table.
  EXPECT_NE(c.find("for (int kt = 0; kt < NK; ++kt)"), std::string::npos);
  EXPECT_NE(c.find("htvm_dma_2d"), std::string::npos);
  EXPECT_NE(c.find("diana_digital_conv2d"), std::string::npos);
  EXPECT_NE(c.find("w_off"), std::string::npos);
  EXPECT_NE(c.find("convnet_run"), std::string::npos);
  EXPECT_NE(c.find("l2_arena"), std::string::npos);
}

TEST(AccelCodegen, AnalogKernelLoadsMacroOnce) {
  models::ConvLayerParams p;
  p.weight_dtype = DType::kTernary;
  const auto art =
      MustCompile(models::MakeConvLayerGraph(p), CompileOptions::AnalogOnly());
  auto emitted = EmitArtifactC(art, "ana");
  ASSERT_TRUE(emitted.ok());
  const std::string& c = emitted->files.at("ana.c");
  EXPECT_NE(c.find("diana_analog_load_weights"), std::string::npos);
  EXPECT_NE(c.find("diana_analog_conv2d"), std::string::npos);
  // Packed ternary weights emitted as bytes.
  EXPECT_NE(c.find("static const uint8_t"), std::string::npos);
}

TEST(AccelCodegen, TileMajorWeightsIsAPermutation) {
  models::ConvLayerParams p;
  p.c = 24;
  p.k = 40;
  p.iy = p.ix = 16;
  const hw::DianaConfig cfg;
  dory::TilerOptions o;
  o.l1_budget_bytes = 4 * 1024;
  auto sched = dory::BuildSchedule(models::MakeConvSpec(p), cfg,
                                   dory::AccelTarget::kDigital, o);
  ASSERT_TRUE(sched.ok());
  Rng rng(3);
  Tensor w = Tensor::Random(Shape{40, 24, 3, 3}, DType::kInt8, rng);
  Tensor tiled = dory::TileMajorWeights(*sched, w);
  ASSERT_EQ(tiled.NumElements(), w.NumElements());
  std::vector<i8> a(w.data<i8>().begin(), w.data<i8>().end());
  std::vector<i8> b(tiled.data<i8>().begin(), tiled.data<i8>().end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  // Offsets cover the whole tensor.
  const auto offs = dory::TileMajorWeightOffsets(*sched);
  ASSERT_FALSE(offs.empty());
  EXPECT_EQ(offs.front(), 0);
  for (size_t i = 1; i < offs.size(); ++i) EXPECT_GT(offs[i], offs[i - 1]);
  EXPECT_LT(offs.back(), w.NumElements());
}

TEST(Codegen, EveryMlperfConfigEmits) {
  for (const auto& model : models::MlperfTinySuite()) {
    struct Cfg {
      models::PrecisionPolicy policy;
      CompileOptions opt;
    };
    const Cfg cfgs[] = {
        {models::PrecisionPolicy::kInt8, CompileOptions::PlainTvm()},
        {models::PrecisionPolicy::kInt8, CompileOptions::DigitalOnly()},
        {models::PrecisionPolicy::kTernary, CompileOptions::AnalogOnly()},
        {models::PrecisionPolicy::kMixed, CompileOptions{}},
    };
    for (const auto& cfg : cfgs) {
      const auto art = MustCompile(model.build(cfg.policy), cfg.opt);
      auto emitted = EmitArtifactC(art, "net");
      EXPECT_TRUE(emitted.ok())
          << model.name << ": " << emitted.status().ToString();
      if (emitted.ok()) {
        EXPECT_EQ(emitted->files.count("net.c"), 1u);
        EXPECT_EQ(emitted->files.count("htvm_runtime.h"), 1u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Host-execution test: emitted CPU-only code is real C computing real int8
// arithmetic — compile it with the host compiler, run it, compare with the
// reference interpreter bit-for-bit.
// ---------------------------------------------------------------------------

bool ToolAvailable(const char* cmd) {
  const std::string check = std::string("command -v ") + cmd + " > /dev/null";
  return std::system(check.c_str()) == 0;
}

// Compiles `net` for the CPU only, emits it as C, builds it with the host
// compiler next to a harness that prints the output bytes, and compares
// them with the reference interpreter on a seeded input.
void ExpectEmittedCpuMatchesInterpreter(const Graph& net,
                                        const std::string& name) {
  SCOPED_TRACE(name);
  const auto art = MustCompile(net, CompileOptions::PlainTvm());
  auto emitted = EmitArtifactC(art, name);
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();

  // Reference result.
  Rng rng(17);
  const Tensor input = Tensor::Random(net.node(net.inputs()[0]).type.shape,
                                      DType::kInt8, rng);
  auto ref = nn::RunGraph(net, std::vector<Tensor>{input});
  ASSERT_TRUE(ref.ok());
  const Tensor& expected = ref.value()[0];

  // Write sources + a harness that prints the output bytes.
  const std::string dir = ::testing::TempDir() + "/htvm_emit_" + name;
  std::system(("mkdir -p " + dir).c_str());
  ASSERT_TRUE(emitted->WriteTo(dir).ok());
  {
    std::ofstream main_c(dir + "/main.c");
    main_c << "#include <stdio.h>\n#include \"" << name << ".h\"\n";
    main_c << "static const signed char input[] = {";
    for (i64 i = 0; i < input.NumElements(); ++i) {
      main_c << input.GetFlat(i) << (i + 1 < input.NumElements() ? "," : "");
    }
    main_c << "};\nint main(void) {\n";
    main_c << "  signed char out[" << expected.NumElements() << "];\n";
    main_c << "  " << name << "_run((const void*)input, out);\n";
    main_c << "  for (int i = 0; i < " << expected.NumElements()
           << "; ++i) printf(\"%d\\n\", (int)out[i]);\n  return 0;\n}\n";
  }
  const std::string bin = dir + "/" + name + "_bin";
  const std::string compile_cmd = "cc -std=c11 -O1 -o " + bin + " " + dir +
                                  "/" + name + ".c " + dir + "/main.c 2> " +
                                  dir + "/cc.log";
  ASSERT_EQ(std::system(compile_cmd.c_str()), 0)
      << "emitted C failed to compile; see " << dir << "/cc.log";

  const std::string out_file = dir + "/out.txt";
  ASSERT_EQ(std::system((bin + " > " + out_file).c_str()), 0);
  std::ifstream out_stream(out_file);
  i64 mismatched = 0;
  for (i64 i = 0; i < expected.NumElements(); ++i) {
    int value = 9999;
    out_stream >> value;
    mismatched += value != expected.GetFlat(i);
  }
  EXPECT_EQ(mismatched, 0) << "of " << expected.NumElements()
                           << " output elements";
}

TEST(Codegen, EmittedCpuDeploymentMatchesInterpreter) {
  if (!ToolAvailable("cc")) GTEST_SKIP() << "no host C compiler";

  // Small all-CPU deployment (plain TVM baseline).
  GraphBuilder b(11);
  NodeId x = b.Input("x", Shape{1, 4, 8, 8});
  ConvSpec c1;
  c1.out_channels = 8;
  c1 = WithSamePadding(c1, 8, 8);
  NodeId y = b.ConvBlock(x, c1, "c1");
  ConvSpec dwspec;
  dwspec.depthwise = true;
  dwspec = WithSamePadding(dwspec, 8, 8);
  y = b.ConvBlock(y, dwspec, "dw");
  y = b.GlobalAvgPool(y);
  y = b.Flatten(y);
  y = b.DenseBlock(y, 6, /*relu=*/false, 6, DType::kInt8, "fc");
  y = b.Softmax(y);
  ExpectEmittedCpuMatchesInterpreter(b.Finish(y), "testnet");

  // Accumulator + bias leaves int32: the interpreter wraps the bias add
  // and rounds the shift without overflow, and so must the emitted C.
  models::ConvLayerParams p;
  p.c = p.k = 8;
  p.iy = p.ix = 8;
  p.shift = 20;
  Graph wrap = models::MakeConvLayerGraph(p);
  for (const Node& n : wrap.nodes()) {
    if (!n.IsOp("nn.bias_add")) continue;
    for (i32& v : wrap.mutable_node(n.inputs[1]).value.data<i32>()) {
      v = INT32_MAX - 100;
    }
  }
  ExpectEmittedCpuMatchesInterpreter(wrap, "wrapnet");

  // A softmax row wider than the 1024 entries the emitted helper once kept
  // on its stack.
  GraphBuilder wide(3);
  const NodeId logits = wide.Input("x", Shape{1, 2048});
  ExpectEmittedCpuMatchesInterpreter(wide.Finish(wide.Softmax(logits)),
                                     "widesoftmax");
}

TEST(Codegen, EmittedAccelDeploymentCompiles) {
  if (!ToolAvailable("cc")) GTEST_SKIP() << "no host C compiler";
  Graph net = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  const auto art = MustCompile(net, CompileOptions{});
  auto emitted = EmitArtifactC(art, "resnet");
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  const std::string dir = ::testing::TempDir() + "/htvm_emit_resnet";
  std::system(("mkdir -p " + dir).c_str());
  ASSERT_TRUE(emitted->WriteTo(dir).ok());
  const std::string cmd = "cc -std=c11 -O0 -c -o " + dir + "/resnet.o " +
                          dir + "/resnet.c 2> " + dir + "/cc.log";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "emitted accelerated C failed to compile; see " << dir << "/cc.log";
}

}  // namespace
}  // namespace htvm
