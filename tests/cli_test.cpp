// End-to-end tests of the htvmc CLI binary (invoked as a subprocess; ctest
// runs tests from build/tests, so the tool sits at ../tools/htvmc).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "compiler/pipeline.hpp"
#include "ir/builder.hpp"
#include "ir/serialize.hpp"
#include "models/mlperf_tiny.hpp"
#include "vm/hab.hpp"

namespace htvm {
namespace {

const char* kTool = "../tools/htvmc";
const char* kServeTool = "../tools/htvm-serve";
const char* kRunTool = "../tools/htvm-run";

bool BinaryExists(const char* path) {
  std::ifstream f(path);
  return f.good();
}

bool ToolExists() { return BinaryExists(kTool); }

int RunBinary(const char* tool, const std::string& args,
              std::string* out_path, const char* capture_name) {
  const std::string capture = ::testing::TempDir() + capture_name;
  if (out_path != nullptr) *out_path = capture;
  const std::string cmd =
      std::string(tool) + " " + args + " > " + capture + " 2>&1";
  return std::system(cmd.c_str());
}

int RunTool(const std::string& args, std::string* out_path = nullptr) {
  return RunBinary(kTool, args, out_path, "/htvmc_out.txt");
}

int RunServe(const std::string& args, std::string* out_path = nullptr,
             const char* capture_name = "/htvm_serve_out.txt") {
  return RunBinary(kServeTool, args, out_path, capture_name);
}

int RunRun(const std::string& args, std::string* out_path = nullptr) {
  return RunBinary(kRunTool, args, out_path, "/htvm_run_out.txt");
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Cli, HelpSucceeds) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  EXPECT_EQ(RunTool("--help", &out), 0);
  EXPECT_NE(ReadAll(out).find("--config"), std::string::npos);
}

TEST(Cli, NoInputFails) {
  if (!ToolExists()) GTEST_SKIP();
  EXPECT_NE(RunTool("--config mixed"), 0);
}

TEST(Cli, UnknownFlagFails) {
  if (!ToolExists()) GTEST_SKIP();
  EXPECT_NE(RunTool("--model resnet --frobnicate"), 0);
}

TEST(Cli, CompilesBuiltinModelWithReport) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  ASSERT_EQ(RunTool("--model resnet --config mixed --report --energy", &out), 0);
  const std::string text = ReadAll(out);
  EXPECT_NE(text.find("kernels"), std::string::npos);
  EXPECT_NE(text.find("diana.conv2d"), std::string::npos);
  EXPECT_NE(text.find("TOPS/W"), std::string::npos);
  EXPECT_NE(text.find("analog"), std::string::npos);
}

TEST(Cli, CompilesSerializedGraph) {
  if (!ToolExists()) GTEST_SKIP();
  GraphBuilder b(3);
  NodeId x = b.Input("x", Shape{1, 8, 16, 16});
  ConvSpec spec;
  spec.out_channels = 16;
  spec = WithSamePadding(spec, 16, 16);
  Graph g = b.Finish(b.ConvBlock(x, spec, "c"));
  const std::string path = ::testing::TempDir() + "/cli_net.htvm";
  ASSERT_TRUE(SaveGraph(g, path).ok());
  std::string out;
  ASSERT_EQ(RunTool("--graph " + path + " --config digital --report", &out), 0);
  EXPECT_NE(ReadAll(out).find("digital"), std::string::npos);
}

TEST(Cli, EmitsCompilableSources) {
  if (!ToolExists()) GTEST_SKIP();
  const std::string dir = ::testing::TempDir() + "/cli_emit";
  ASSERT_EQ(RunTool("--model toyadmos --config digital --emit-dir " + dir), 0);
  std::ifstream f(dir + "/toyadmos.c");
  EXPECT_TRUE(f.good());
}

TEST(Cli, UnknownModelFailsWithMessage) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  EXPECT_NE(RunTool("--model nosuchnet --config mixed", &out), 0);
  EXPECT_NE(ReadAll(out).find("unknown model 'nosuchnet'"), std::string::npos);
}

TEST(Cli, BadConfigFailsWithMessage) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  EXPECT_NE(RunTool("--model resnet --config warp", &out), 0);
  EXPECT_NE(ReadAll(out).find("unknown --config 'warp'"), std::string::npos);
}

TEST(Cli, UnreadableGraphFailsWithMessage) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  EXPECT_NE(RunTool("--graph /nonexistent/dir/net.htvm --config digital",
                    &out),
            0);
  EXPECT_NE(ReadAll(out).find("cannot open /nonexistent/dir/net.htvm"),
            std::string::npos);
}

TEST(Cli, ZeroStrideGraphIsTypedError) {
  if (!ToolExists()) GTEST_SKIP();
  // A zero stride used to abort the process in ConvOutDim (exit 134).
  const std::string path = ::testing::TempDir() + "/cli_zero_stride.htvm";
  std::ofstream(path) << "htvm-graph v1\n"
                         "input x int8 4 1 1 4 4\n"
                         "op nn.max_pool2d 1 0 2 pool_size v:2:2:2 "
                         "strides v:2:0:0\n"
                         "output 1 1\n";
  std::string out;
  const int rc = RunTool("--graph " + path, &out);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1);
  EXPECT_NE(ReadAll(out).find("INVALID_ARGUMENT"), std::string::npos);
}

TEST(Cli, MissingFlagValueFails) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  EXPECT_NE(RunTool("--model", &out), 0);
  EXPECT_NE(ReadAll(out).find("--model needs a value"), std::string::npos);
}

TEST(Cli, BadL1ValueFails) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  EXPECT_NE(RunTool("--model resnet --l1 0", &out), 0);
  EXPECT_NE(ReadAll(out).find("bad --l1 value"), std::string::npos);
}

// A numeric flag value must parse whole: trailing junk or a non-number is
// the typed "bad --<flag> value" error, never a silently truncated prefix
// (atoi("12abc") == 12) or 0.
using FlagValues = std::vector<std::pair<std::string, std::string>>;

TEST(Cli, NumericFlagsRejectPartialNumbers) {
  if (!ToolExists()) GTEST_SKIP();
  for (const auto& [flag, v] :
       FlagValues{{"--input-seed", "abc"}, {"--l1", "12abc"},
                  {"--compile-threads", "2x"}, {"--compile-threads", "-1"}}) {
    std::string out;
    EXPECT_NE(RunTool("--model dscnn " + flag + " " + v, &out), 0) << flag;
    EXPECT_NE(ReadAll(out).find("INVALID_ARGUMENT: bad " + flag + " value"),
              std::string::npos)
        << flag << " " << v;
  }
}

TEST(Cli, L1OverrideChangesTiling) {
  if (!ToolExists()) GTEST_SKIP();
  std::string big_out, small_out;
  ASSERT_EQ(RunTool("--model resnet --config digital --report", &big_out), 0);
  const std::string big = ReadAll(big_out);
  ASSERT_EQ(RunTool("--model resnet --config digital --l1 4 --report",
                &small_out),
            0);
  const std::string small = ReadAll(small_out);
  EXPECT_NE(big, small);  // tighter L1 -> different tile counts/latency
}

TEST(Cli, PrintPassTimesListsEveryPass) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  ASSERT_EQ(RunTool("--model resnet --config mixed --print-pass-times", &out),
            0);
  const std::string text = ReadAll(out);
  EXPECT_NE(text.find("pass timeline:"), std::string::npos);
  for (const char* pass :
       {"AbsorbPadding", "ConstantFold", "PartitionGraph",
        "InsertAnalogInputClamps", "LowerToKernels", "CompileKernels",
        "ComputeBinarySize", "PlanL2Memory", "FinalizeArtifact", "total"}) {
    EXPECT_NE(text.find(pass), std::string::npos) << "missing " << pass;
  }
}

TEST(Cli, DumpIrWritesDeterministicDumps) {
  if (!ToolExists()) GTEST_SKIP();
  const std::string dir_a = ::testing::TempDir() + "/cli_ir_a";
  const std::string dir_b = ::testing::TempDir() + "/cli_ir_b";
  std::string out;
  ASSERT_EQ(RunTool("--model dscnn --config mixed --dump-ir " + dir_a, &out),
            0);
  EXPECT_NE(ReadAll(out).find("dumped per-pass IR to " + dir_a),
            std::string::npos);
  ASSERT_EQ(RunTool("--model dscnn --config mixed --dump-ir " + dir_b), 0);
  // Spot-check the first and last graph stage; both text and DOT forms are
  // deterministic, so reruns must produce byte-identical files.
  for (const char* name :
       {"/00_input.txt", "/03_PartitionGraph.dot", "/05_LowerToKernels.txt"}) {
    const std::string a = ReadAll(dir_a + name);
    EXPECT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, ReadAll(dir_b + name)) << name;
  }
}

TEST(Cli, PrintPassTimesMarksSkippedPasses) {
  if (!ToolExists()) GTEST_SKIP();
  // The already-folded resnet gives AbsorbPadding and ConstantFold nothing
  // to do; the early-exit satellite marks them in the timeline.
  std::string out;
  ASSERT_EQ(RunTool("--model resnet --config mixed --print-pass-times", &out),
            0);
  EXPECT_NE(ReadAll(out).find("skipped"), std::string::npos);
}

TEST(Cli, DumpIrFilterRestrictsToAroundPass) {
  if (!ToolExists()) GTEST_SKIP();
  const std::string dir = ::testing::TempDir() + "/cli_ir_filter";
  ASSERT_EQ(RunTool("--model resnet --config mixed --dump-ir " + dir +
                    " --dump-ir-filter PartitionGraph"),
            0);
  // Only the graphs around the named pass: the one entering it (the
  // preceding stage's output — dumped even though ConstantFold itself was
  // skipped) and the one it produced.
  EXPECT_FALSE(ReadAll(dir + "/02_ConstantFold.txt").empty());
  EXPECT_FALSE(ReadAll(dir + "/03_PartitionGraph.dot").empty());
  EXPECT_TRUE(ReadAll(dir + "/00_input.txt").empty());
  EXPECT_TRUE(ReadAll(dir + "/05_LowerToKernels.txt").empty());
}

TEST(Cli, CacheDirSecondRunHits) {
  if (!ToolExists()) GTEST_SKIP();
  const std::string dir = ::testing::TempDir() + "/cli_cache_dir";
  std::filesystem::remove_all(dir);  // stale entries from a previous run
  std::string out;
  ASSERT_EQ(
      RunTool("--model dscnn --config mixed --cache-dir " + dir, &out), 0);
  const std::string first = ReadAll(out);
  EXPECT_NE(first.find("cache: miss"), std::string::npos);
  // A second process on the same dir loads the persisted artifact and
  // reports the identical summary line.
  ASSERT_EQ(
      RunTool("--model dscnn --config mixed --cache-dir " + dir, &out), 0);
  const std::string second = ReadAll(out);
  EXPECT_NE(second.find("cache: hit"), std::string::npos);
  const auto summary = [](const std::string& s) {
    const size_t pos = s.find(" kernels | ");
    return pos == std::string::npos
               ? std::string()
               : s.substr(s.rfind('\n', pos) + 1,
                          s.find('\n', pos) - s.rfind('\n', pos));
  };
  EXPECT_FALSE(summary(first).empty());
  EXPECT_EQ(summary(first), summary(second));
}

TEST(Cli, UnwritableDumpDirFailsWithMessage) {
  if (!ToolExists()) GTEST_SKIP();
  const std::string blocker = ::testing::TempDir() + "/cli_ir_blocker";
  std::ofstream(blocker) << "not a directory";
  std::string out;
  EXPECT_NE(RunTool("--model resnet --config mixed --dump-ir " + blocker,
                    &out),
            0);
  EXPECT_NE(ReadAll(out).find("cannot write IR dump"), std::string::npos);
}

TEST(ServeCli, HelpSucceeds) {
  if (!BinaryExists(kServeTool)) GTEST_SKIP();
  std::string out;
  EXPECT_EQ(RunServe("--help", &out), 0);
  EXPECT_NE(ReadAll(out).find("--fleet"), std::string::npos);
}

TEST(ServeCli, NoModelFails) {
  if (!BinaryExists(kServeTool)) GTEST_SKIP();
  EXPECT_NE(RunServe("--qps 100"), 0);
}

TEST(ServeCli, UnknownModelFails) {
  if (!BinaryExists(kServeTool)) GTEST_SKIP();
  std::string out;
  EXPECT_NE(RunServe("--model nosuchnet", &out), 0);
  EXPECT_NE(ReadAll(out).find("unknown model 'nosuchnet'"),
            std::string::npos);
}

TEST(ServeCli, PrintsJsonMetricsDeterministically) {
  if (!BinaryExists(kServeTool)) GTEST_SKIP();
  // Scaled-down version of the acceptance command (the full 2-second trace
  // is exercised by bench_serving); verifies every metric family is present
  // and that stdout is byte-identical across runs of the same seed.
  const std::string args =
      "--model resnet --config mixed --qps 200 --fleet 4 --duration-s 0.1 "
      "--seed 7 --verify";
  std::string out_a, out_b;
  ASSERT_EQ(RunServe(args, &out_a, "/serve_a.txt"), 0);
  ASSERT_EQ(RunServe(args, &out_b, "/serve_b.txt"), 0);
  // The compile-cache block reports measured pipeline time
  // (miss_cost_ns/saved_ns); those are wall-clock, not simulation, so they
  // are the one legitimately nondeterministic metric — zero them before the
  // byte comparison.
  const auto scrub = [](std::string s) {
    for (const char* field : {"\"miss_cost_ns\": ", "\"saved_ns\": "}) {
      size_t pos = 0;
      while ((pos = s.find(field, pos)) != std::string::npos) {
        pos += std::strlen(field);
        size_t end = pos;
        while (end < s.size() && std::isdigit(s[end]) != 0) ++end;
        s.replace(pos, end - pos, "0");
      }
    }
    return s;
  };
  const std::string a = ReadAll(out_a);
  EXPECT_EQ(scrub(a), scrub(ReadAll(out_b)));
  for (const char* key :
       {"\"throughput_rps\"", "\"p50\"", "\"p95\"", "\"p99\"",
        "\"rejected\"", "\"utilization\"", "\"output_mismatches\": 0",
        "\"cache\"", "\"compiles\": 1", "\"enabled\": true"}) {
    EXPECT_NE(a.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(Cli, BadSocFailsListingFamilies) {
  if (!ToolExists()) GTEST_SKIP();
  std::string out;
  EXPECT_NE(RunTool("--model resnet --soc not-a-soc", &out), 0);
  const std::string text = ReadAll(out);
  EXPECT_NE(text.find("not-a-soc"), std::string::npos);
  EXPECT_NE(text.find("diana-l1half"), std::string::npos);
}

TEST(Cli, SocFlagIsRecordedAndEnforcedByRunner) {
  if (!ToolExists() || !BinaryExists(kRunTool)) GTEST_SKIP();
  const std::string hab = ::testing::TempDir() + "/cli_soc.hab";
  std::string out;
  ASSERT_EQ(RunTool("--model dscnn --config mixed --soc diana-l1half "
                    "--emit-artifact " + hab, &out), 0);
  EXPECT_NE(ReadAll(out).find("soc: diana-l1half"), std::string::npos);

  // Matching runner deployment executes; --meta names the recorded SoC.
  EXPECT_EQ(RunRun(hab + " --soc diana-l1half", &out), 0);
  ASSERT_EQ(RunRun(hab + " --meta", &out), 0);
  EXPECT_NE(ReadAll(out).find("soc: diana-l1half"), std::string::npos);

  // A mismatched deployment refuses with a typed error naming both SoCs.
  EXPECT_NE(RunRun(hab + " --soc diana", &out), 0);
  const std::string mismatch = ReadAll(out);
  EXPECT_NE(mismatch.find("UNSUPPORTED"), std::string::npos);
  EXPECT_NE(mismatch.find("diana-l1half"), std::string::npos);
  EXPECT_NE(mismatch.find("'diana'"), std::string::npos);

  // Default-SoC artifacts load as diana and pass a diana deployment check.
  const std::string diana_hab = ::testing::TempDir() + "/cli_diana.hab";
  ASSERT_EQ(RunTool("--model dscnn --config mixed --emit-artifact " +
                    diana_hab), 0);
  EXPECT_EQ(RunRun(diana_hab + " --soc diana", &out), 0);
}

TEST(ServeCli, HeterogeneousFleetServesWithPerKindMetrics) {
  if (!BinaryExists(kServeTool)) GTEST_SKIP();
  std::string out;
  ASSERT_EQ(RunServe("--model dscnn --config mixed --qps 100 "
                     "--duration-s 0.1 --seed 7 --verify "
                     "--fleet diana:1,diana-pe32:1",
                     &out, "/serve_hetero.txt"), 0);
  const std::string text = ReadAll(out);
  // One compile per distinct SoC kind, each reported per kind.
  EXPECT_NE(text.find("\"placement\": \"model-aware\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"diana\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"diana-pe32\""), std::string::npos);
  EXPECT_NE(text.find("\"cache_by_kind\""), std::string::npos);
  EXPECT_NE(text.find("\"output_mismatches\": 0"), std::string::npos);
}

TEST(ServeCli, NumericFlagsRejectPartialNumbers) {
  if (!BinaryExists(kServeTool)) GTEST_SKIP();
  for (const auto& [flag, v] :
       FlagValues{{"--seed", "abc"}, {"--qps", "10x"}, {"--duration-s", "1s"},
                  {"--queue-cap", "4.5"}, {"--batch", "2b"},
                  {"--threads", "t"}, {"--compile-threads", "2x"},
                  {"--crash-frac", "0.3z"}, {"--transient-rate", "nan"},
                  {"--slow-frac", "2"}}) {
    std::string out;
    EXPECT_NE(RunServe("--model dscnn " + flag + " " + v, &out,
                       "/serve_badnum.txt"),
              0)
        << flag;
    EXPECT_NE(ReadAll(out).find("bad " + flag + " value"), std::string::npos)
        << flag << " " << v;
  }
  std::string out;
  EXPECT_NE(RunServe("--model dscnn --fleet diana:2x", &out,
                     "/serve_badnum.txt"),
            0);
  EXPECT_NE(ReadAll(out).find("bad --fleet count in 'diana:2x'"),
            std::string::npos);
}

TEST(RunCli, InputSeedRejectsPartialNumbers) {
  if (!BinaryExists(kRunTool)) GTEST_SKIP();
  for (const char* v : {"abc", "7x", "-1"}) {
    std::string out;
    EXPECT_NE(RunRun(std::string("model.hab --input-seed ") + v, &out), 0)
        << v;
    EXPECT_NE(ReadAll(out).find("bad --input-seed value"), std::string::npos)
        << v;
  }
}

TEST(RunCli, WrongShapeInputIsTypedErrorWhenSimulatingTiles) {
  if (!ToolExists() || !BinaryExists(kRunTool)) GTEST_SKIP();
  // The model's outputs are not a valid input: both paths reject them as a
  // typed error, never an abort.
  const std::string hab = ::testing::TempDir() + "/cli_wrong_input.hab";
  const std::string outputs = ::testing::TempDir() + "/cli_wrong_input.bin";
  ASSERT_EQ(RunTool("--model dscnn --config mixed --emit-artifact " + hab +
                    " --run-outputs " + outputs),
            0);
  for (const char* mode : {"", " --simulate-tiles"}) {
    std::string out;
    const int rc = RunRun(hab + " --input " + outputs + mode, &out);
    ASSERT_TRUE(WIFEXITED(rc)) << mode;
    EXPECT_EQ(WEXITSTATUS(rc), 1) << mode;
    EXPECT_NE(ReadAll(out).find("INVALID_ARGUMENT"), std::string::npos)
        << mode;
  }
}

// A HAB with valid checksums whose schedule lies about its layer (a forged
// input width) is refused at load: htvm-run exits 1 with a typed error
// instead of aborting inside a tile, and a --preload-dir fleet skips the
// file and serves the good HAB beside it.
TEST(RunCli, ForgedScheduleIsTypedErrorAndSkippedByPreload) {
  if (!BinaryExists(kRunTool) || !BinaryExists(kServeTool)) GTEST_SKIP();
  const std::string dir = ::testing::TempDir() + "/cli_forged";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto artifact = compiler::HtvmCompiler{{}}.Compile(
      models::BuildDsCnn(models::PrecisionPolicy::kMixed));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  ASSERT_TRUE(
      vm::SaveHab(*artifact, {"dscnn", "cli_test"}, dir + "/good.hab").ok());
  auto accel = std::find_if(
      artifact->kernels.begin(), artifact->kernels.end(),
      [](const compiler::CompiledKernel& k) { return k.schedule.has_value(); });
  ASSERT_NE(accel, artifact->kernels.end());
  accel->schedule->spec.ix = i64{1} << 58;
  const std::string forged = dir + "/forged.hab";
  ASSERT_TRUE(vm::SaveHab(*artifact, {"forged", "cli_test"}, forged).ok());

  std::string out;
  const int rc = RunRun(forged + " --simulate-tiles", &out);
  ASSERT_TRUE(WIFEXITED(rc)) << ReadAll(out);
  EXPECT_EQ(WEXITSTATUS(rc), 1);
  EXPECT_NE(ReadAll(out).find("INVALID_ARGUMENT"), std::string::npos)
      << ReadAll(out);

  ASSERT_EQ(RunServe("--preload-dir " + dir +
                         " --qps 50 --duration-s 0.1 --seed 7",
                     &out, "/serve_forged.txt"),
            0)
      << ReadAll(out);
  const std::string log = ReadAll(out);
  EXPECT_NE(log.find("skipping " + forged), std::string::npos) << log;
  EXPECT_NE(log.find("dscnn preloaded from"), std::string::npos) << log;
}

TEST(ServeCli, BadFleetSpecFails) {
  if (!BinaryExists(kServeTool)) GTEST_SKIP();
  std::string out;
  EXPECT_NE(RunServe("--model dscnn --fleet diana:1,bogus:2", &out,
                     "/serve_badfleet.txt"), 0);
  EXPECT_NE(ReadAll(out).find("bogus"), std::string::npos);
  EXPECT_NE(RunServe("--model dscnn --placement sometimes", &out,
                     "/serve_badplace.txt"), 0);
  // earliest-free is no policy of its own: model-aware reduces to it on a
  // fleet of one SoC kind.
  EXPECT_NE(RunServe("--model dscnn --placement earliest-free", &out,
                     "/serve_badplace.txt"), 0);
  EXPECT_NE(ReadAll(out).find("model-aware|round-robin"), std::string::npos);
}

}  // namespace
}  // namespace htvm
