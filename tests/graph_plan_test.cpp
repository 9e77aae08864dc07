// The graph-level schedule-search contract (docs/schedule_search.md
// "Graph-level search"):
//
//   1. The GraphPlan text form round-trips, and every malformed input —
//      including the corrupted HAB plan sections the fuzz battery mutates —
//      comes back as a typed InvalidArgument, never a crash.
//   2. 50-seed property battery: on random networks across every registered
//      SoC, the graph-beam plan never loses to the heuristic partitioning
//      on simulated latency (the heuristic plan is always a finalist),
//      executes bit-exact with the heuristic-plan artifact, and is
//      deterministic across CompileKernels thread counts.
//   3. A graph-beam compile through the artifact cache is byte-identical
//      to a cache-less one, and repeating it is an artifact hit with zero
//      plan or schedule evaluations.
//   4. Capability gating: a plan searched for a reduced SoC never contains
//      a dispatch decision the SoC cannot execute, and decisions the search
//      must not touch (analog composites, whose bodies the clamp pass
//      rewrites) are pinned to the heuristic choice.
//   5. The plan survives the HAB round trip (and a heuristic compile writes
//      no plan section), and a HAB whose embedded plan names a different SoC
//      than the artifact is refused with a typed error.
//   6. The default heuristic partitioning for the layer zoo, the MLPerf
//      Tiny suite and the TinyTransformer is pinned as goldens under
//      tests/golden/plan/ (regenerate with --update-golden or
//      HTVM_UPDATE_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "compiler/plan_search.hpp"
#include "dory/graph_plan.hpp"
#include "dory/schedule_search.hpp"
#include "hab_diff.hpp"
#include "hw/soc.hpp"
#include "ir/builder.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "models/transformer.hpp"
#include "runtime/executor.hpp"
#include "runtime/verify.hpp"
#include "support/rng.hpp"
#include "vm/hab.hpp"

#ifndef HTVM_GOLDEN_DIR
#error "HTVM_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace htvm {
namespace {

bool g_update_golden = false;

// Random conv-chain network biased toward fusable adjacent pairs: stacks of
// channel-matched conv blocks, occasionally broken by a pool or residual
// add so the battery also exercises plans with unfusable boundaries.
Graph RandomNetwork(Rng& rng, Shape* in_shape) {
  GraphBuilder b(rng.NextU64());
  i64 c = static_cast<i64>(rng.UniformInt(1, 3)) * 8;
  i64 hw = static_cast<i64>(rng.UniformInt(8, 16));
  *in_shape = Shape{1, c, hw, hw};
  NodeId x = b.Input("x", *in_shape);
  const i64 stages = rng.UniformInt(3, 6);
  NodeId residual = kInvalidNode;
  for (i64 s = 0; s < stages; ++s) {
    switch (rng.UniformInt(0, 4)) {
      case 0:
      case 1: {  // conv (twice as likely: fusion needs adjacent convs)
        ConvSpec spec;
        spec.out_channels = static_cast<i64>(rng.UniformInt(1, 3)) * 8;
        spec.kernel_h = spec.kernel_w = rng.UniformInt(0, 1) ? 3 : 1;
        spec.relu = rng.UniformInt(0, 1) == 1;
        spec.shift = rng.UniformInt(4, 8);
        spec = WithSamePadding(spec, hw, hw);
        residual = x;
        x = b.ConvBlock(x, spec, "conv" + std::to_string(s));
        c = spec.out_channels;
        break;
      }
      case 2: {  // depthwise
        ConvSpec spec;
        spec.depthwise = true;
        spec.relu = true;
        spec = WithSamePadding(spec, hw, hw);
        x = b.ConvBlock(x, spec, "dw" + std::to_string(s));
        break;
      }
      case 3: {  // residual add when shapes allow (an unfusable boundary)
        if (residual != kInvalidNode &&
            b.graph().node(residual).type == b.graph().node(x).type) {
          x = b.AddBlock(residual, x, /*relu=*/true, /*shift=*/1);
        } else {
          x = b.graph().AddOp("nn.relu", {x});
        }
        break;
      }
      default: {  // pool (shrinks spatial dims, breaks the conv chain)
        if (hw >= 4) {
          x = b.MaxPool(x, 2, 2);
          hw /= 2;
        }
        break;
      }
    }
  }
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.DenseBlock(x, 4, /*relu=*/false, 6);
  return b.Finish(x);
}

compiler::Artifact MustCompile(const Graph& net,
                               const compiler::CompileOptions& opt) {
  auto art = compiler::HtvmCompiler{opt}.Compile(net);
  HTVM_CHECK_MSG(art.ok(), "compile failed");
  return std::move(art.value());
}

// ---------------------------------------------------------------------------
// 1. GraphPlan text form: round-trip + typed errors on malformed input
// ---------------------------------------------------------------------------

TEST(GraphPlanFormat, SerializeDeserializeRoundTrip) {
  dory::GraphPlan plan;
  plan.soc_name = "diana-l2x2";
  plan.decisions = {
      {"diana.conv2d", "digital", /*fuse_with_next=*/true},
      {"diana.conv2d", "digital", false},
      {"diana.add", "cpu", false},
      {"diana.conv2d", "analog", false},
  };
  auto back = dory::GraphPlan::Deserialize(plan.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, plan);
  EXPECT_EQ(back->FusedPairs(), 1);
  EXPECT_EQ(back->CpuDecisions(), 1);

  // The empty plan round-trips too (units=0, no unit lines).
  dory::GraphPlan empty;
  auto eback = dory::GraphPlan::Deserialize(empty.Serialize());
  ASSERT_TRUE(eback.ok());
  EXPECT_TRUE(eback->empty());
}

TEST(GraphPlanFormat, MalformedInputsAreTypedErrors) {
  const char* kBad[] = {
      "",
      "garbage",
      "graph-plan v2 soc=diana units=0",          // unknown version
      "graph-plan v1 soc=diana",                  // missing units
      "graph-plan v1 units=0",                    // missing soc
      "graph-plan v1 soc=diana units=1",          // truncated unit list
      "graph-plan v1 soc=diana units=-3",         // negative count
      "graph-plan v1 soc=diana units=9999999",    // absurd count
      "graph-plan v1 soc=bad name units=0",       // soc with a space
      "graph-plan v1 soc=diana units=1\nunit p gpu fuse=0",    // bad target
      "graph-plan v1 soc=diana units=1\nunit p cpu fuse=2",    // bad flag
      "graph-plan v1 soc=diana units=1\nunit p cpu fuse=1",    // fuse @ last
      "graph-plan v1 soc=diana units=2\n"
      "unit a digital fuse=1\nunit b cpu fuse=0",  // fused pair, two engines
      "graph-plan v1 soc=diana units=3\nunit a digital fuse=1\n"
      "unit b digital fuse=1\nunit c digital fuse=0",  // fusion chain
      "graph-plan v1 soc=diana units=1\n"
      "unit p cpu fuse=0\ntrailing garbage",       // trailing data
  };
  for (const char* text : kBad) {
    auto plan = dory::GraphPlan::Deserialize(text);
    ASSERT_FALSE(plan.ok()) << "accepted: " << text;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

// ---------------------------------------------------------------------------
// 2. 50-seed property battery
// ---------------------------------------------------------------------------

TEST(GraphPlan, FiftySeedSearchProperty) {
  const std::vector<std::string> socs = hw::SocNames();
  ASSERT_GE(socs.size(), 6u);
  constexpr int kSeeds = 50;
  i64 fused_total = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(0x6F97A110ull + static_cast<u64>(seed));
    Shape in_shape;
    const Graph net = RandomNetwork(rng, &in_shape);
    ASSERT_TRUE(net.Validate().ok());
    const hw::SocDescription soc =
        *hw::FindSoc(socs[static_cast<size_t>(seed) % socs.size()]);

    compiler::CompileOptions base;  // mixed: widest dispatch coverage
    base.soc = soc;
    const compiler::Artifact heuristic = MustCompile(net, base);
    // The default path must stay plan-free (and thus byte-identical to
    // every pre-graph-search serialization).
    EXPECT_TRUE(heuristic.plan.empty()) << "seed " << seed;

    compiler::CompileOptions opt = base;
    opt.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
    const compiler::Artifact searched = MustCompile(net, opt);
    ASSERT_FALSE(searched.plan.empty()) << "seed " << seed;
    EXPECT_EQ(searched.plan.soc_name, soc.name) << "seed " << seed;
    fused_total += searched.plan.FusedPairs();

    // Match-or-beat on the artifact's own reported latency: the heuristic
    // plan is always finalist 0, so the searched artifact can never be
    // slower.
    EXPECT_LE(searched.TotalFullCycles(), heuristic.TotalFullCycles())
        << "seed " << seed << " on " << soc.name;

    // Bit-exact: repartitioning, fusing and dispatch-flipping must not
    // change a single output byte relative to the heuristic deployment.
    Rng data_rng(static_cast<u64>(seed) * 977 + 13);
    const std::vector<Tensor> inputs = {
        Tensor::Random(in_shape, DType::kInt8, data_rng)};
    const runtime::Executor he(&heuristic);
    const runtime::Executor se(&searched);
    auto hout = he.Run(inputs);
    auto sout = se.Run(inputs);
    ASSERT_TRUE(hout.ok()) << hout.status().ToString();
    ASSERT_TRUE(sout.ok()) << sout.status().ToString();
    ASSERT_EQ(hout->outputs.size(), sout->outputs.size());
    for (size_t i = 0; i < hout->outputs.size(); ++i) {
      EXPECT_TRUE(sout->outputs[i].SameAs(hout->outputs[i]))
          << "seed " << seed << " output " << i
          << ": searched plan diverged from heuristic execution";
    }
    // And against the reference interpreter: wherever the heuristic
    // deployment is bit-exact, the searched one must be too.
    auto href = runtime::VerifyArtifact(heuristic, net, inputs);
    auto sref = runtime::VerifyArtifact(searched, net, inputs);
    ASSERT_TRUE(href.ok()) << href.status().ToString();
    ASSERT_TRUE(sref.ok()) << sref.status().ToString();
    if (href->bit_exact) {
      EXPECT_TRUE(sref->bit_exact) << "seed " << seed;
    }

    // Thread-count determinism, sampled across the battery: the plan is
    // searched before CompileKernels fans out, so the lane count must be
    // invisible in the artifact.
    if (seed % 10 == 0) {
      compiler::CompileOptions par = opt;
      par.compile_threads = 4;
      const compiler::Artifact parallel = MustCompile(net, par);
      EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHabForDiff(searched),
                          vm::SerializeHabForDiff(parallel))
          << "seed " << seed;
      EXPECT_EQ(parallel.plan, searched.plan) << "seed " << seed;
    }
  }
  // The sweep must genuinely exercise fusion, not just keep/flip decisions.
  EXPECT_GE(fused_total, 5);
}

// ---------------------------------------------------------------------------
// 3. Repeat compiles through the artifact cache
// ---------------------------------------------------------------------------

TEST(GraphPlan, CachedSecondCompilePerformsZeroEvaluations) {
  const Graph net = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  compiler::CompileOptions opt;
  opt.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;

  dory::ScheduleSearchStats::Global().Reset();
  const compiler::Artifact uncached = MustCompile(net, opt);
  const i64 uncached_evals = dory::ScheduleSearchStats::Global().TotalEvals();
  ASSERT_GT(uncached_evals, 0) << "graph-beam compile must actually search";
  ASSERT_FALSE(uncached.plan.empty());

  // Attaching a cache changes nothing about a cold compile.
  cache::ArtifactCache cache;
  opt.cache = &cache;
  dory::ScheduleSearchStats::Global().Reset();
  const compiler::Artifact cold = MustCompile(net, opt);
  EXPECT_EQ(dory::ScheduleSearchStats::Global().TotalEvals(), uncached_evals);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHabForDiff(uncached),
                      vm::SerializeHabForDiff(cold));

  // The same compile again is an artifact hit: no pass runs, so nothing is
  // searched, and the plan is the cold compile's.
  dory::ScheduleSearchStats::Global().Reset();
  const compiler::Artifact warm = MustCompile(net, opt);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(dory::ScheduleSearchStats::Global().TotalEvals(), 0)
      << "cached compile re-searched";
  EXPECT_EQ(warm.plan, cold.plan);
}

// ---------------------------------------------------------------------------
// 4. Capability gating
// ---------------------------------------------------------------------------

TEST(GraphPlan, ReducedSocsNeverGetForbiddenDispatchDecisions) {
  for (const char* soc_name : {"diana-noanalog", "diana-scalar"}) {
    const hw::SocDescription soc = *hw::FindSoc(soc_name);
    for (const auto& model : models::MlperfTinySuite()) {
      const Graph net = model.build(models::PrecisionPolicy::kMixed);
      compiler::CompileOptions opt;
      opt.soc = soc;
      opt.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
      const compiler::Artifact art = MustCompile(net, opt);
      for (const dory::PlanDecision& d : art.plan.decisions) {
        if (d.target == "analog") {
          EXPECT_TRUE(soc.has_analog)
              << model.name << " on " << soc_name
              << ": plan dispatches to an absent analog engine";
        }
        if (d.target == "digital" || d.fuse_with_next) {
          EXPECT_TRUE(soc.has_digital)
              << model.name << " on " << soc_name
              << ": plan dispatches to an absent digital engine";
        }
      }
    }
  }
}

TEST(GraphPlan, AnalogDecisionsArePinnedToTheHeuristic) {
  // The clamp pass rewrites analog composite bodies, so the search must
  // never move work onto or off the analog array: those decisions are
  // pinned, only digital composites may flip or fuse.
  const Graph net = models::BuildMobileNetV1(models::PrecisionPolicy::kMixed);
  compiler::CompileOptions opt;  // default diana: analog present
  auto heuristic = compiler::HeuristicGraphPlan(net, opt);
  ASSERT_TRUE(heuristic.ok()) << heuristic.status().ToString();
  opt.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
  const compiler::Artifact art = MustCompile(net, opt);
  ASSERT_EQ(art.plan.decisions.size(), heuristic->decisions.size());
  int analog = 0;
  for (size_t i = 0; i < art.plan.decisions.size(); ++i) {
    if (heuristic->decisions[i].target != "analog") continue;
    ++analog;
    EXPECT_EQ(art.plan.decisions[i].target, "analog") << "unit " << i;
    EXPECT_FALSE(art.plan.decisions[i].fuse_with_next) << "unit " << i;
  }
  ASSERT_GT(analog, 0) << "mixed MobileNet must dispatch analog layers";
}

// ---------------------------------------------------------------------------
// 5. Serialization: HAB round trip, cross-SoC refusal
// ---------------------------------------------------------------------------

TEST(GraphPlan, PlanSurvivesHabRoundTrip) {
  const Graph net = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  compiler::CompileOptions opt;
  opt.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
  const compiler::Artifact art = MustCompile(net, opt);
  ASSERT_FALSE(art.plan.empty());
  const std::string image = vm::SerializeHab(art, {});
  auto parsed = vm::ParseHab(
      {reinterpret_cast<const u8*>(image.data()), image.size()});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->artifact.plan, art.plan);
  EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHab(parsed->artifact),
                      image);

  // A heuristic compile writes no plan: its HAB has no kPlan section.
  const compiler::Artifact plain = MustCompile(net, compiler::CompileOptions{});
  const std::string plain_image = vm::SerializeHab(plain, {});
  auto plain_parsed = vm::ParseHab(
      {reinterpret_cast<const u8*>(plain_image.data()), plain_image.size()});
  ASSERT_TRUE(plain_parsed.ok()) << plain_parsed.status().ToString();
  for (const vm::HabSectionInfo& section : plain_parsed->sections) {
    EXPECT_NE(section.id, static_cast<u32>(vm::HabSection::kPlan));
  }
}

TEST(GraphPlan, HabWithCrossSocPlanIsRefused) {
  const Graph net = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  compiler::CompileOptions opt;
  opt.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
  compiler::Artifact art = MustCompile(net, opt);
  ASSERT_FALSE(art.plan.empty());
  ASSERT_EQ(art.plan.soc_name, "diana");
  // Forge an artifact claiming SoC B while its plan was searched for SoC A
  // (what a buggy producer or a spliced file would present). The loader
  // must refuse — replaying A's fusion/dispatch decisions on B would be
  // silently wrong — with a typed error naming both SoCs, which is also
  // what `htvm-run --soc B` surfaces when handed such a file.
  art.soc_name = "diana-l2x2";
  const std::string image = vm::SerializeHab(art, {});
  auto parsed = vm::ParseHab(
      {reinterpret_cast<const u8*>(image.data()), image.size()});
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  const std::string msg = parsed.status().ToString();
  EXPECT_NE(msg.find("diana-l2x2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("refusing"), std::string::npos) << msg;
}

// A planned artifact is still deployable as C: the diana.fused2 pair lowers
// through the CPU body lowering (conv2d loops with fused requant included),
// and the whole emitted tree compiles with the host C compiler.
TEST(GraphPlan, EmittedFusedDeploymentCompiles) {
  const Graph net = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  compiler::CompileOptions opt;
  opt.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
  const compiler::Artifact art = MustCompile(net, opt);
  ASSERT_GT(art.plan.FusedPairs(), 0);
  auto emitted = compiler::EmitArtifactC(art, "dscnn");
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  const std::string& c = emitted->files.at("dscnn.c");
  EXPECT_NE(c.find("diana_fused2"), std::string::npos);
  EXPECT_NE(c.find("= nn.conv2d -> nn.bias_add"), std::string::npos);
  const std::string check = "command -v cc > /dev/null";
  if (std::system(check.c_str()) != 0) GTEST_SKIP() << "no host C compiler";
  const std::string dir = ::testing::TempDir() + "/htvm_plan_emit";
  std::system(("mkdir -p " + dir).c_str());
  ASSERT_TRUE(emitted->WriteTo(dir).ok());
  const std::string cmd = "cc -std=c11 -O0 -c -o " + dir + "/dscnn.o " + dir +
                          "/dscnn.c 2> " + dir + "/cc.log";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "emitted planned C failed to compile; see " << dir << "/cc.log";
}

// ---------------------------------------------------------------------------
// 6. Golden-pinned heuristic partitioning (default diana)
// ---------------------------------------------------------------------------

std::string PlanGoldenPath(const std::string& name) {
  return std::string(HTVM_GOLDEN_DIR) + "/plan/" + name + ".plan";
}

void CheckPlanGolden(const Graph& net, const std::string& name) {
  auto plan = compiler::HeuristicGraphPlan(net, compiler::CompileOptions{});
  ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
  const std::string text = plan->Serialize();
  const std::string path = PlanGoldenPath(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "cannot open " << path
      << "\n(run with --update-golden to generate the reference)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str())
      << "default heuristic partitioning of " << name << " drifted from "
      << path
      << "\nIf the change is intentional, regenerate with --update-golden "
         "and commit the diff.";
}

TEST(GraphPlanGolden, LayerZooHeuristicPartitioningIsPinned) {
  models::ConvLayerParams p;
  p.c = 16;
  p.k = 16;
  p.iy = p.ix = 16;
  CheckPlanGolden(models::MakeConvLayerGraph(p), "conv16");
  CheckPlanGolden(models::MakeDenseLayerGraph(64, 10), "dense64x10");
}

TEST(GraphPlanGolden, MlperfTinyHeuristicPartitioningIsPinned) {
  for (const auto& model : models::MlperfTinySuite()) {
    CheckPlanGolden(model.build(models::PrecisionPolicy::kMixed), model.name);
  }
}

TEST(GraphPlanGolden, TinyTransformerHeuristicPartitioningIsPinned) {
  CheckPlanGolden(models::TinyTransformer(/*depth=*/1, /*heads=*/2,
                                          /*d_model=*/32, /*seq_len=*/16),
                  "TinyTransformer");
}

}  // namespace
}  // namespace htvm

// Custom main: gtest_main's main() is only linked when none is defined, so
// providing one here is safe and gives us the --update-golden escape hatch.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      htvm::g_update_golden = true;
    }
  }
  const char* env = std::getenv("HTVM_UPDATE_GOLDEN");
  if (env != nullptr && std::string(env) == "1") {
    htvm::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
