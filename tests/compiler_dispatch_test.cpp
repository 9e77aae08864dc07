#include <gtest/gtest.h>

#include "compiler/accel_spec.hpp"
#include "compiler/dispatch.hpp"
#include "compiler/pipeline.hpp"
#include "models/layer_zoo.hpp"
#include "pattern/rewriter.hpp"
#include "pattern/std_patterns.hpp"
#include "runtime/verify.hpp"

namespace htvm::compiler {
namespace {

const hw::DianaConfig kCfg = hw::DianaConfig::Default();

dory::AccelLayerSpec ConvSpecOf(i64 c, i64 k, DType wdtype,
                                bool dw = false) {
  models::ConvLayerParams p;
  p.c = c;
  p.k = dw ? c : k;
  p.depthwise = dw;
  p.weight_dtype = wdtype;
  return models::MakeConvSpec(p);
}

TEST(AccelRules, DigitalTakesInt8NotTernary) {
  EXPECT_TRUE(DigitalSupports(ConvSpecOf(16, 16, DType::kInt8), kCfg));
  EXPECT_FALSE(DigitalSupports(ConvSpecOf(16, 16, DType::kTernary), kCfg));
}

TEST(AccelRules, AnalogTakesTernaryNotInt8) {
  EXPECT_TRUE(AnalogSupports(ConvSpecOf(16, 16, DType::kTernary), kCfg));
  EXPECT_FALSE(AnalogSupports(ConvSpecOf(16, 16, DType::kInt8), kCfg));
}

TEST(AccelRules, AnalogRejectsDepthwise) {
  EXPECT_FALSE(AnalogSupports(
      ConvSpecOf(16, 16, DType::kTernary, /*dw=*/true), kCfg));
  EXPECT_TRUE(DigitalSupports(
      ConvSpecOf(16, 16, DType::kInt8, /*dw=*/true), kCfg));
}

TEST(AccelRules, AnalogRejectsPatchOverMacroRows) {
  // C*kh*kw = 256*9 = 2304 > 1152 rows.
  EXPECT_FALSE(AnalogSupports(ConvSpecOf(256, 16, DType::kTernary), kCfg));
  // 128*9 = 1152 exactly fits.
  EXPECT_TRUE(AnalogSupports(ConvSpecOf(128, 16, DType::kTernary), kCfg));
}

TEST(AccelRules, DigitalRejectsHugeStrides) {
  auto spec = ConvSpecOf(16, 16, DType::kInt8);
  spec.sy = spec.sx = 5;
  EXPECT_FALSE(DigitalSupports(spec, kCfg));
}

TEST(SpecFromMatch, ReadsConvGeometry) {
  models::ConvLayerParams p;
  p.c = 8;
  p.k = 24;
  p.iy = 20;
  p.ix = 12;
  p.stride = 2;
  Graph g = models::MakeConvLayerGraph(p);
  MatchResult m;
  ASSERT_TRUE(MatchAt(g, g.outputs()[0], ConvChainPattern(), g.UseCounts(),
                      &m));
  auto spec = SpecFromMatch(g, m);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->kind, dory::LayerKind::kConv2d);
  EXPECT_EQ(spec->c, 8);
  EXPECT_EQ(spec->k, 24);
  EXPECT_EQ(spec->iy, 20);
  EXPECT_EQ(spec->ix, 12);
  EXPECT_EQ(spec->sy, 2);
  EXPECT_EQ(spec->oy, 10);
  EXPECT_EQ(spec->ox, 6);
}

// Only the canonical requant chain reaches an accelerator, whose output
// stage computes exactly that chain. A conv whose saturating clip is
// [-100, 127] stays on the CPU, and its composite body is not analyzable.
// An activation clip of [0, 100] stays out of the composite: the
// accelerator ends the chain at the cast and the clip runs on the CPU.
// Both still match the interpreter.
TEST(Dispatch, NonCanonicalRequantChainStaysOnCpu) {
  struct Edit {
    const char* after;  // the op the edited clip consumes
    i64 a_min, a_max;
    bool accelerated;
  };
  for (const Edit& e : {Edit{"right_shift", -100, 127, false},
                        Edit{"cast", 0, 100, true}}) {
    SCOPED_TRACE(e.after);
    models::ConvLayerParams p;
    p.c = p.k = 8;
    p.iy = p.ix = 8;
    Graph g = models::MakeConvLayerGraph(p);
    for (const Node& n : g.nodes()) {
      if (n.IsOp("clip") && g.node(n.inputs[0]).IsOp(e.after)) {
        g.mutable_node(n.id).attrs.Set("a_min", e.a_min);
        g.mutable_node(n.id).attrs.Set("a_max", e.a_max);
      }
    }
    auto art = HtvmCompiler{CompileOptions::DigitalOnly()}.Compile(g);
    ASSERT_TRUE(art.ok()) << art.status().ToString();
    i64 accelerated = 0;
    for (const CompiledKernel& k : art->kernels) {
      const Node& composite = art->kernel_graph.node(k.node);
      auto spec = dory::AnalyzeCompositeBody(*composite.body);
      if (!k.schedule.has_value()) {
        EXPECT_EQ(spec.status().code(), StatusCode::kUnsupported) << k.name;
        continue;
      }
      ++accelerated;
      ASSERT_TRUE(spec.ok()) << spec.status().ToString();
      EXPECT_FALSE(spec->requant.relu);
    }
    EXPECT_EQ(accelerated, e.accelerated ? 1 : 0);
    Rng rng(9);
    const Tensor input = Tensor::Random(Shape{1, 8, 8, 8}, DType::kInt8, rng);
    auto report = runtime::VerifyArtifact(*art, g, std::vector<Tensor>{input},
                                          /*simulate_tiles=*/true);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->bit_exact);
  }
}

TEST(Dispatch, RoutesByWeightDtype) {
  const DispatchOptions both;
  const auto rules = MakeDianaDispatchRules(both, kCfg, {});

  models::ConvLayerParams p8;
  p8.c = 16;
  p8.k = 16;
  Graph g8 = models::MakeConvLayerGraph(p8);
  Graph p8g = PartitionGraph(g8, rules);
  std::string target8;
  for (const Node& n : p8g.nodes()) {
    if (n.kind == NodeKind::kComposite) target8 = n.attrs.GetString("target");
  }
  EXPECT_EQ(target8, "digital");

  models::ConvLayerParams pt = p8;
  pt.weight_dtype = DType::kTernary;
  Graph gt = models::MakeConvLayerGraph(pt);
  Graph ptg = PartitionGraph(gt, rules);
  std::string target_t;
  for (const Node& n : ptg.nodes()) {
    if (n.kind == NodeKind::kComposite) target_t = n.attrs.GetString("target");
  }
  EXPECT_EQ(target_t, "analog");
}

TEST(Dispatch, DisabledAcceleratorFallsToCpu) {
  DispatchOptions digital_off;
  digital_off.enable_digital = false;
  digital_off.enable_analog = false;
  const auto rules = MakeDianaDispatchRules(digital_off, kCfg, {});
  models::ConvLayerParams p;
  Graph g = models::MakeConvLayerGraph(p);
  Graph part = PartitionGraph(g, rules);
  for (const Node& n : part.nodes()) {
    EXPECT_NE(n.kind, NodeKind::kComposite);
  }
}

TEST(Dispatch, TernaryWithoutAnalogStaysOnCpu) {
  // Ternary weights and analog disabled: digital has no ternary kernels,
  // TVM has none either -> stays unfused for the CPU path... which also has
  // no ternary kernels in the real flow; here the reference interpreter
  // executes it (footnote 1 of the paper: TVM does not support generating
  // ternary kernels — the dispatcher must therefore never send ternary to
  // digital).
  DispatchOptions analog_off;
  analog_off.enable_analog = false;
  const auto rules = MakeDianaDispatchRules(analog_off, kCfg, {});
  models::ConvLayerParams p;
  p.weight_dtype = DType::kTernary;
  Graph g = models::MakeConvLayerGraph(p);
  Graph part = PartitionGraph(g, rules);
  for (const Node& n : part.nodes()) {
    EXPECT_NE(n.kind, NodeKind::kComposite);
  }
}

TEST(Dispatch, AddGoesDigital) {
  Graph g = models::MakeAddLayerGraph(16, 8, 8);
  const auto rules = MakeDianaDispatchRules({}, kCfg, {});
  Graph part = PartitionGraph(g, rules);
  std::string target;
  for (const Node& n : part.nodes()) {
    if (n.kind == NodeKind::kComposite) target = n.attrs.GetString("target");
  }
  EXPECT_EQ(target, "digital");
}

TEST(Dispatch, DenseGoesDigitalOrAnalogByDtype) {
  const auto rules = MakeDianaDispatchRules({}, kCfg, {});
  Graph g8 = models::MakeDenseLayerGraph(64, 32, DType::kInt8);
  Graph gt = models::MakeDenseLayerGraph(64, 32, DType::kTernary);
  const Graph p8 = PartitionGraph(g8, rules);
  const Graph pt = PartitionGraph(gt, rules);
  std::string t8, tt;
  for (const Node& n : p8.nodes()) {
    if (n.kind == NodeKind::kComposite) t8 = n.attrs.GetString("target");
  }
  for (const Node& n : pt.nodes()) {
    if (n.kind == NodeKind::kComposite) tt = n.attrs.GetString("target");
  }
  EXPECT_EQ(t8, "digital");
  EXPECT_EQ(tt, "analog");
}

}  // namespace
}  // namespace htvm::compiler
