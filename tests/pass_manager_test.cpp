#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "compiler/compile_passes.hpp"
#include "compiler/pass_manager.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"

namespace htvm::compiler {
namespace {

std::vector<std::string> TimelineNames(const PassTimeline& timeline) {
  std::vector<std::string> names;
  for (const PassStat& stat : timeline) names.push_back(stat.name);
  return names;
}

std::map<std::string, std::string> ReadDir(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    files[entry.path().filename().string()] = ss.str();
  }
  return files;
}

// The pipeline is a fixed, ordered sequence of named passes; a change here
// is an intentional pipeline change and must update this snapshot (and
// docs/compiler_passes.md).
TEST(PassManager, PipelineSnapshot) {
  const std::vector<std::string> expected = {
      "AbsorbPadding",  "ConstantFold",      "PartitionGraph",
      "InsertAnalogInputClamps", "LowerToKernels", "CompileKernels",
      "ComputeBinarySize", "PlanL2Memory",   "FinalizeArtifact"};
  EXPECT_EQ(BuildHtvmPassPipeline().PassNames(), expected);
}

TEST(PassManager, TimelineRecordsEveryPassWithNodeDeltas) {
  const Graph net = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  auto art = HtvmCompiler{CompileOptions{}}.Compile(net);
  ASSERT_TRUE(art.ok()) << art.status().ToString();
  EXPECT_EQ(TimelineNames(art->pass_timeline),
            BuildHtvmPassPipeline().PassNames());

  i64 total_ns = 0;
  for (const PassStat& stat : art->pass_timeline) {
    EXPECT_GE(stat.wall_ns, 0) << stat.name;
    EXPECT_GT(stat.nodes_before, 0) << stat.name;
    EXPECT_GT(stat.nodes_after, 0) << stat.name;
    total_ns += stat.wall_ns;
  }
  EXPECT_GT(total_ns, 0);

  // The front-end pass sees the whole input network; partitioning collapses
  // matched chains into composites; artifact-only passes leave the graph
  // untouched.
  EXPECT_EQ(art->pass_timeline.front().nodes_before, net.NumNodes());
  const PassStat& partition = art->pass_timeline[2];
  EXPECT_EQ(partition.name, "PartitionGraph");
  EXPECT_LT(partition.nodes_after, partition.nodes_before);
  const PassStat& kernels = art->pass_timeline[5];
  EXPECT_EQ(kernels.name, "CompileKernels");
  EXPECT_EQ(kernels.nodes_after, kernels.nodes_before);

  const std::string table = PassTimelineToTable(art->pass_timeline);
  EXPECT_NE(table.find("PartitionGraph"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(PassManager, InterPassValidationCatchesCorruptedGraph) {
  CompileOptions options;
  CompileState state(options);
  const Graph net = models::MakeConvLayerGraph(models::ConvLayerParams{});

  PassManager pm;
  pm.Add("CorruptTypes", [](CompileState& s) {
    for (const Node& n : s.graph.nodes()) {
      if (n.kind != NodeKind::kOp) continue;
      // Stored type no longer matches re-running inference.
      s.graph.mutable_node(n.id).type =
          TensorType{Shape{1, 2, 3}, DType::kInt32};
      break;
    }
    return Status::Ok();
  });

  const Status status = pm.Run(net, state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("CorruptTypes"), std::string::npos);
}

// A rewrite that leaves a binary op with one input is caught by the
// arity check of re-validation, before type inference reads the missing
// input.
TEST(PassManager, InterPassValidationCatchesDroppedInput) {
  CompileOptions options;
  CompileState state(options);
  const Graph net = models::MakeConvLayerGraph(models::ConvLayerParams{});

  PassManager pm;
  pm.Add("DropInput", [](CompileState& s) {
    for (const Node& n : s.graph.nodes()) {
      if (n.kind != NodeKind::kOp || n.inputs.size() != 2) continue;
      s.graph.mutable_node(n.id).inputs.pop_back();
      break;
    }
    return Status::Ok();
  });

  const Status status = pm.Run(net, state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("pass DropInput produced an invalid graph"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("expects 2 inputs, got 1"),
            std::string::npos)
      << status.ToString();
}

TEST(PassManager, FailingPassIsNamedInStatus) {
  CompileOptions options;
  CompileState state(options);

  PassManager pm;
  pm.Add("Explode",
         [](CompileState&) { return Status::Unsupported("boom"); });
  const Status status = pm.Run(
      models::MakeConvLayerGraph(models::ConvLayerParams{}), state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnsupported);
  EXPECT_NE(status.message().find("pass Explode: boom"), std::string::npos);
}

TEST(PassManager, DumpFilesDeterministicAcrossRuns) {
  const Graph net = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  const std::string dir_a = ::testing::TempDir() + "/pm_dump_a";
  const std::string dir_b = ::testing::TempDir() + "/pm_dump_b";
  for (const std::string& dir : {dir_a, dir_b}) {
    std::filesystem::remove_all(dir);
    CompileOptions opt;
    opt.instrument.dump_ir_dir = dir;
    auto art = HtvmCompiler{opt}.Compile(net);
    ASSERT_TRUE(art.ok()) << art.status().ToString();
  }
  const auto files_a = ReadDir(dir_a);
  const auto files_b = ReadDir(dir_b);
  // Input + the graph-rewriting passes that changed the graph, one .txt and
  // one .dot each. AbsorbPadding and ConstantFold report no change on the
  // already-folded resnet and are skipped — skipped passes write no dump
  // (their output is the previous file).
  EXPECT_EQ(files_a.size(), 8u);
  EXPECT_EQ(files_a, files_b);
  EXPECT_EQ(files_a.count("00_input.txt"), 1u);
  EXPECT_EQ(files_a.count("01_AbsorbPadding.txt"), 0u);
  EXPECT_EQ(files_a.count("03_PartitionGraph.dot"), 1u);
  EXPECT_EQ(files_a.count("05_LowerToKernels.txt"), 1u);
  for (const auto& [name, content] : files_a) {
    EXPECT_FALSE(content.empty()) << name;
  }
}

TEST(PassManager, UnwritableDumpDirFailsCompile) {
  const std::string blocker = ::testing::TempDir() + "/pm_dump_blocker";
  std::ofstream(blocker) << "not a directory";
  CompileOptions opt;
  opt.instrument.dump_ir_dir = blocker;
  auto art = HtvmCompiler{opt}.Compile(
      models::MakeConvLayerGraph(models::ConvLayerParams{}));
  ASSERT_FALSE(art.ok());
  EXPECT_NE(art.status().message().find("cannot write IR dump"),
            std::string::npos);
}

}  // namespace
}  // namespace htvm::compiler
