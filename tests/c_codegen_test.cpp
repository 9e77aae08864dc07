// C code emission tests: structural checks on generated kernels, and
// proofs that emitted CPU code compiles with the host C compiler and
// computes bit-exactly what the reference interpreter computes -- whole
// CPU-only deployments, and every CPU kernel of every registry cell.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "dory/c_codegen.hpp"
#include "dory/layer_spec.hpp"
#include "emit_harness.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "models/registry.hpp"
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
// Host-execution tests: emitted CPU code is real C computing real int8
// arithmetic -- compile it with the host compiler, run it, compare with the
// reference interpreter bit-for-bit.
// ---------------------------------------------------------------------------

// Compiles `net` for the CPU only, emits it as C, and runs the emitted
// network against the reference interpreter on a seeded input.
void ExpectEmittedCpuMatchesInterpreter(const Graph& net,
                                        const std::string& name) {
  SCOPED_TRACE(name);
  const auto art = MustCompile(net, CompileOptions::PlainTvm());
  auto emitted = EmitArtifactC(art, name);
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  Rng rng(17);
  const Tensor input = Tensor::Random(net.node(net.inputs()[0]).type.shape,
                                      DType::kInt8, rng);
  auto ref = nn::RunGraph(net, std::vector<Tensor>{input});
  ASSERT_TRUE(ref.ok());
  emit_harness::ExpectEmittedRunMatches(*emitted, name, input,
                                        ref.value()[0]);
}

TEST(Codegen, EmittedCpuDeploymentMatchesInterpreter) {
  if (!emit_harness::HostCcAvailable()) GTEST_SKIP() << "no host C compiler";

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

  // A pad that no conv absorbs (its consumer is a pool) is a kernel of
  // its own.
  GraphBuilder padded(5);
  const NodeId px = padded.Input("x", Shape{1, 2, 4, 4});
  const NodeId pad = padded.graph().AddOp(
      "nn.pad", {px}, AttrMap{{"pad_width", std::vector<i64>{1, 1, 1, 1}}});
  ExpectEmittedCpuMatchesInterpreter(padded.Finish(padded.MaxPool(pad, 2, 2)),
                                     "padpool");

  // Batch 2: pools walk every image's channels, and the dense chain (no
  // accelerator layer shape, which is batch 1) still fuses.
  GraphBuilder batch2(6);
  const NodeId bx = batch2.Input("x", Shape{2, 3, 7, 5});
  const NodeId avg = batch2.graph().AddOp(
      "nn.avg_pool2d", {bx},
      AttrMap{{"pool_size", std::vector<i64>{3, 2}},
              {"strides", std::vector<i64>{2, 1}},
              {"padding", std::vector<i64>{1, 0, 1, 1}}});
  const NodeId fc = batch2.DenseBlock(
      batch2.Flatten(batch2.GlobalAvgPool(avg)), 4, /*relu=*/true, 5);
  ExpectEmittedCpuMatchesInterpreter(batch2.Finish(fc), "batch2");

  // A per-channel requant chain on a grouped (not depthwise) conv with a
  // narrower saturating clip: tvm.conv2d fuses it, but it is none of the
  // accelerator layer shapes dory::AnalyzeCompositeBody reads.
  GraphBuilder grouped(9);
  Graph& gg = grouped.graph();
  const NodeId gx = grouped.Input("x", Shape{1, 4, 6, 6});
  Rng wrng(21);
  const NodeId gw = gg.AddConstant(
      Tensor::Random(Shape{8, 2, 3, 3}, DType::kInt8, wrng));
  const NodeId gconv =
      gg.AddOp("nn.conv2d", {gx, gw},
               AttrMap{{"groups", i64{2}},
                       {"padding", std::vector<i64>{1, 1, 1, 1}}});
  const NodeId gb = gg.AddConstant(
      Tensor::Random(Shape{8}, DType::kInt32, wrng));
  const NodeId gbias = gg.AddOp("nn.bias_add", {gconv, gb});
  Tensor shifts(Shape{8}, DType::kInt32);
  for (i64 k = 0; k < 8; ++k) shifts.SetFlat(k, k % 4 + 3);
  const NodeId gshift =
      gg.AddOp("right_shift", {gbias, gg.AddConstant(shifts)});
  const NodeId gclip = gg.AddOp(
      "clip", {gshift}, AttrMap{{"a_min", i64{-100}}, {"a_max", i64{100}}});
  const NodeId gcast =
      gg.AddOp("cast", {gclip}, AttrMap{{"dtype", std::string("int8")}});
  const Graph grouped_net = grouped.Finish(gcast);
  EXPECT_FALSE(dory::AnalyzeCompositeBody(grouped_net).ok());
  ExpectEmittedCpuMatchesInterpreter(grouped_net, "groupedpc");
}

TEST(Codegen, EmittedAccelDeploymentCompiles) {
  if (!emit_harness::HostCcAvailable()) GTEST_SKIP() << "no host C compiler";
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

// ---------------------------------------------------------------------------
// Per-kernel differential: every CPU kernel of every registry cell (model x
// deploy config x schedule search), built in one translation unit per cell
// with -Wall -Wextra -Werror and run on seeded inputs, against
// nn::RunGraph on the kernel's body.
// ---------------------------------------------------------------------------

struct Cell {
  const models::RegisteredModel* model;
  const models::DeployConfig* config;
  dory::ScheduleSearchKind search;

  std::string Name() const {
    return StrFormat("%s.%s.%s", model->name, config->name,
                     dory::ScheduleSearchKindName(search));
  }
};

// A cell child's exit codes.
constexpr int kCellMatched = 0;
constexpr int kCellMismatched = 1;    // some kernel output differs
constexpr int kCellWarnings = 2;      // matched, but only without -Werror
constexpr int kCellNotBuilt = 3;      // compile, emit or cc failed
constexpr size_t kCellLanes = 4;      // children alive at once

// The emitted name of a kernel's C function.
std::string KernelFunction(const std::string& kernel_name) {
  std::string fn = kernel_name;
  for (char& ch : fn) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return fn;
}

// Runs one cell and writes a one-line report to `dir`/report.txt.
int RunCell(const Cell& cell, const std::string& dir) {
  std::system(("mkdir -p " + dir).c_str());
  std::ofstream report(dir + "/report.txt");
  CompileOptions opt = cell.config->options();
  opt.schedule_search.kind = cell.search;
  opt.compile_threads = 1;  // a forked child has no pool lanes
  opt.schedule_search.eval_lanes = 1;
  auto art = HtvmCompiler{opt}.Compile(cell.model->build(cell.config->policy));
  if (!art.ok()) {
    report << "compile: " << art.status().ToString();
    return kCellNotBuilt;
  }
  auto emitted = EmitArtifactC(*art, "net");
  if (!emitted.ok()) {
    report << "emit: " << emitted.status().ToString();
    return kCellNotBuilt;
  }

  // The emitted network plus a main() that runs each CPU kernel once on
  // fresh seeded inputs and writes its output bytes to stdout.
  const Graph& g = art->kernel_graph;
  std::string tu = "int main(void) {\n";
  u32 state = 1;
  std::string expected;
  i64 kernels = 0;
  std::vector<std::pair<std::string, size_t>> ends;  // name, output end
  for (const compiler::CompiledKernel& kernel : art->kernels) {
    if (kernel.schedule.has_value()) continue;
    const Graph& body = *g.node(kernel.node).body;
    std::vector<Tensor> inputs;
    std::string call = KernelFunction(kernel.name) + "(";
    tu += "  {\n";
    for (size_t i = 0; i < body.inputs().size(); ++i) {
      const TensorType& t = body.node(body.inputs()[i]).type;
      inputs.emplace_back(t.shape, DType::kInt8);
      emit_harness::FillSeeded(&inputs.back(), &state);
      tu += StrFormat("    static int8_t in%zu[%lld];\n", i,
                      (long long)t.shape.NumElements());
      tu += StrFormat("    htvm_fill(in%zu, %lld);\n", i,
                      (long long)t.shape.NumElements());
      call += StrFormat("in%zu, ", i);
    }
    auto ref = nn::RunGraph(body, inputs);
    if (!ref.ok()) {
      report << kernel.name << ": " << ref.status().ToString();
      return kCellNotBuilt;
    }
    const Tensor& out = ref.value()[0];
    tu += StrFormat("    static int8_t out[%lld];\n",
                    (long long)out.NumElements());
    tu += "    " + call + "out);\n";
    tu += "    fwrite(out, 1, sizeof out, stdout);\n  }\n";
    expected.append(reinterpret_cast<const char*>(out.raw()),
                    static_cast<size_t>(out.NumElements()));
    ends.emplace_back(kernel.name, expected.size());
    ++kernels;
  }
  tu += "  return 0;\n}\n";
  tu = emitted->files.at("net.c") + "\n#include <stdio.h>\n" +
       (kernels > 0 ? emit_harness::kCFill : "") + tu;

  const std::map<std::string, std::string> files = {
      {"htvm_runtime.h", emitted->files.at("htvm_runtime.h")}, {"cell.c", tu}};
  int code = kCellMatched;
  auto got = emit_harness::BuildAndRun(dir, files, {"cell.c"},
                                       "-std=c11 -O1 -Wall -Wextra -Werror");
  if (!got.ok()) {
    // Still compare, so a warning does not hide a mismatch.
    std::system(("cp " + dir + "/cc.log " + dir + "/werror.log").c_str());
    code = kCellWarnings;
    got = emit_harness::BuildAndRun(dir, files, {"cell.c"}, "-std=c11 -O1");
  }
  if (!got.ok()) {
    report << got.status().ToString();
    return kCellNotBuilt;
  }
  report << "kernels " << kernels;
  if (*got == expected) return code;
  report << " mismatched:";
  size_t begin = 0;
  for (const auto& [name, end] : ends) {
    if (got->compare(begin, end - begin, expected, begin, end - begin) != 0) {
      report << " " << name;
    }
    begin = end;
  }
  return kCellMismatched;
}

TEST(Codegen, EveryCpuKernelOfEveryRegistryCellMatchesInterpreter) {
  if (!emit_harness::HostCcAvailable()) GTEST_SKIP() << "no host C compiler";
  std::vector<Cell> cells;
  for (const models::RegisteredModel& model : models::Registry()) {
    for (const models::DeployConfig& config : models::DeployConfigs()) {
      for (const auto search : {dory::ScheduleSearchKind::kHeuristic,
                                dory::ScheduleSearchKind::kGraphBeam}) {
        cells.push_back({&model, &config, search});
      }
    }
  }
  const std::string root = ::testing::TempDir() + "/htvm_kernels";
  std::map<pid_t, size_t> alive;
  std::vector<int> codes(cells.size(), -1);
  const auto reap = [&] {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    ASSERT_GT(pid, 0);
    codes[alive.at(pid)] = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    alive.erase(pid);
  };
  for (size_t i = 0; i < cells.size(); ++i) {
    if (alive.size() == kCellLanes) reap();
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) _exit(RunCell(cells[i], root + "/" + cells[i].Name()));
    alive[pid] = i;
  }
  while (!alive.empty()) reap();

  i64 kernels = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string dir = root + "/" + cells[i].Name();
    std::ifstream in(dir + "/report.txt");
    std::string report((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
    i64 n = 0;
    if (std::sscanf(report.c_str(), "kernels %lld", (long long*)&n) == 1) {
      kernels += n;
    }
    EXPECT_EQ(codes[i], kCellMatched)
        << cells[i].Name() << ": " << report
        << (codes[i] == kCellWarnings ? " (warnings: " + dir + "/werror.log)"
                                      : "");
    if (codes[i] == kCellMatched) std::filesystem::remove_all(dir);
  }
  std::printf("%zu cells, %lld CPU kernels compared\n", cells.size(),
              (long long)kernels);
  EXPECT_GT(kernels, 0);
}

}  // namespace
}  // namespace htvm
