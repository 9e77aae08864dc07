#include <gtest/gtest.h>

#include "compiler/pipeline.hpp"
#include "ir/dot.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"

namespace htvm {
namespace {

TEST(Dot, NetworkGraphRenders) {
  Graph g = models::BuildDsCnn(models::PrecisionPolicy::kInt8);
  const std::string dot = GraphToDot(g);
  EXPECT_NE(dot.find("digraph htvm"), std::string::npos);
  EXPECT_NE(dot.find("nn.conv2d"), std::string::npos);
  EXPECT_NE(dot.find("output"), std::string::npos);
  // Constants hidden by default.
  EXPECT_EQ(dot.find("const "), std::string::npos);
}

TEST(Dot, PartitionedGraphColorsTargets) {
  Graph net = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  auto art = compiler::HtvmCompiler{compiler::CompileOptions{}}.Compile(net);
  ASSERT_TRUE(art.ok());
  const std::string dot = GraphToDot(art->kernel_graph);
  EXPECT_NE(dot.find("palegreen"), std::string::npos);  // digital
  EXPECT_NE(dot.find("orange"), std::string::npos);     // analog
  EXPECT_NE(dot.find("lightgray"), std::string::npos);  // cpu
  EXPECT_NE(dot.find("[digital]"), std::string::npos);
}

TEST(DispatchLog, RecordsAcceptsWithRationale) {
  Graph net = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  auto art = compiler::HtvmCompiler{compiler::CompileOptions{}}.Compile(net);
  ASSERT_TRUE(art.ok());
  // 10 weighted layers + 3 adds reach the dispatcher.
  EXPECT_GE(art->dispatch_log.size(), 13u);
  bool saw_digital = false, saw_analog = false;
  for (const auto& d : art->dispatch_log) {
    EXPECT_FALSE(d.pattern.empty());
    EXPECT_FALSE(d.reason.empty());
    saw_digital |= d.target == "digital";
    saw_analog |= d.target == "analog";
  }
  EXPECT_TRUE(saw_digital);
  EXPECT_TRUE(saw_analog);
}

TEST(DispatchLog, RecordsRejections) {
  // Ternary conv with analog disabled: the diana.conv2d rule must log a
  // CPU fallback with a reason.
  models::ConvLayerParams p;
  p.weight_dtype = DType::kTernary;
  auto art = compiler::HtvmCompiler{compiler::CompileOptions::DigitalOnly()}
                 .Compile(models::MakeConvLayerGraph(p));
  ASSERT_TRUE(art.ok());
  ASSERT_FALSE(art->dispatch_log.empty());
  bool saw_rejection = false;
  for (const auto& d : art->dispatch_log) {
    if (d.target == "cpu") {
      saw_rejection = true;
      EXPECT_NE(d.reason.find("no enabled accelerator"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_rejection);
}

TEST(DispatchLog, EmptyForPlainTvm) {
  Graph net = models::BuildToyAdmosDae(models::PrecisionPolicy::kInt8);
  auto art =
      compiler::HtvmCompiler{compiler::CompileOptions::PlainTvm()}.Compile(
          net);
  ASSERT_TRUE(art.ok());
  EXPECT_TRUE(art->dispatch_log.empty());
}

}  // namespace
}  // namespace htvm
