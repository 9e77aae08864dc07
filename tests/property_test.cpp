// Randomized property tests over the core invariants:
//   1. partitioning + lowering never changes program semantics,
//   2. tiled accelerator execution is bit-exact for random geometries,
//   3. the L2 memory planner never overlaps live buffers and never beats
//      the theoretical lower bound,
//   4. requantization and ternary packing round-trip for arbitrary values.
#include <gtest/gtest.h>

#include "compiler/memory_planner.hpp"
#include "compiler/pipeline.hpp"
#include "dory/tiled_exec.hpp"
#include "hab_diff.hpp"
#include "ir/builder.hpp"
#include "models/layer_zoo.hpp"
#include "nn/interpreter.hpp"
#include "runtime/verify.hpp"
#include "support/string_utils.hpp"
#include "tensor/quantize.hpp"
#include "tvmgen/fusion.hpp"
#include "vm/hab.hpp"

namespace htvm {
namespace {

// Random small network: a chain of conv / dw / pool / add / layernorm /
// gelu stages, optionally capped with a transformer-style matmul head.
Graph RandomNetwork(Rng& rng, Shape* in_shape) {
  GraphBuilder b(rng.NextU64());
  i64 c = 1 + static_cast<i64>(rng.UniformInt(1, 3)) * 4;  // 8..16ish
  i64 hw = static_cast<i64>(rng.UniformInt(6, 14));
  *in_shape = Shape{1, c, hw, hw};
  NodeId x = b.Input("x", *in_shape);
  const i64 stages = rng.UniformInt(2, 5);
  NodeId residual = kInvalidNode;
  for (i64 s = 0; s < stages; ++s) {
    switch (rng.UniformInt(0, 5)) {
      case 0: {  // conv
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
      case 1: {  // depthwise
        ConvSpec spec;
        spec.depthwise = true;
        spec.relu = true;
        spec = WithSamePadding(spec, hw, hw);
        x = b.ConvBlock(x, spec, "dw" + std::to_string(s));
        break;
      }
      case 2: {  // residual add when shapes allow
        if (residual != kInvalidNode &&
            b.graph().node(residual).type == b.graph().node(x).type) {
          x = b.AddBlock(residual, x, /*relu=*/true, /*shift=*/1);
        } else {
          x = b.graph().AddOp("nn.relu", {x});
        }
        break;
      }
      case 3: {  // pool (shrinks spatial dims)
        if (hw >= 4) {
          x = b.MaxPool(x, 2, 2);
          hw /= 2;
        }
        break;
      }
      case 4: {  // integer layernorm over the innermost axis
        x = b.LayerNorm(x);
        break;
      }
      default: {  // GELU on the int8 activation grid
        x = b.Gelu(x);
        break;
      }
    }
  }
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  if (rng.UniformInt(0, 1) == 1) {
    // Transformer-style head: constant-weight matmul chain + GELU +
    // layernorm (the diana.matmul dispatch path on accelerator configs).
    x = b.LayerNorm(b.Gelu(b.MatmulBlock(x, 8, /*relu=*/false, /*shift=*/6,
                                         "mm_head")));
  }
  x = b.DenseBlock(x, 4, /*relu=*/false, 6);
  return b.Finish(x);
}

TEST(Property, PartitioningPreservesSemanticsOnRandomNetworks) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 12; ++trial) {
    Shape in_shape;
    Graph net = RandomNetwork(rng, &in_shape);
    ASSERT_TRUE(net.Validate().ok());
    auto art =
        compiler::HtvmCompiler{compiler::CompileOptions::DigitalOnly()}
            .Compile(net);
    ASSERT_TRUE(art.ok()) << "trial " << trial << ": "
                          << art.status().ToString();
    Rng data_rng(trial * 977 + 3);
    const Tensor input = Tensor::Random(in_shape, DType::kInt8, data_rng);
    auto report =
        runtime::VerifyArtifact(*art, net, std::vector<Tensor>{input});
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->bit_exact)
        << "trial " << trial << ": " << report->mismatched_elements << "/"
        << report->total_elements << " elements differ";
  }
}

// Parallel CompileKernels is invisible in the artifact: for random
// networks, compiling with lanes on the shared pool produces byte-identical
// canonical HAB bytes (wall-clock excluded) and, on failure, the
// identical first error. A failing seed is printed for reproduction: seed
// RandomNetwork's Rng with it directly.
TEST(Property, ParallelCompileMatchesSequentialOnRandomNetworks) {
  Rng seed_rng(0x51D5);
  for (int trial = 0; trial < 50; ++trial) {
    const u64 seed = seed_rng.NextU64();
    Rng rng(seed);
    Shape in_shape;
    const Graph net = RandomNetwork(rng, &in_shape);
    ASSERT_TRUE(net.Validate().ok());
    compiler::CompileOptions sequential;  // mixed: widest dispatch coverage
    sequential.compile_threads = 1;
    compiler::CompileOptions parallel;
    parallel.compile_threads = 4;
    const auto a = compiler::HtvmCompiler{sequential}.Compile(net);
    const auto b = compiler::HtvmCompiler{parallel}.Compile(net);
    ASSERT_EQ(a.ok(), b.ok())
        << "trial " << trial << ": reproduce with RandomNetwork seed 0x"
        << std::hex << seed;
    if (!a.ok()) {
      EXPECT_EQ(a.status().ToString(), b.status().ToString())
          << "trial " << trial << ": reproduce with RandomNetwork seed 0x"
          << std::hex << seed;
      continue;
    }
    EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHabForDiff(*a),
                        vm::SerializeHabForDiff(*b))
        << "trial " << trial << ": reproduce with RandomNetwork seed 0x"
        << std::hex << seed;
  }
}

TEST(Property, TiledSimulationMatchesOnRandomNetworks) {
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 6; ++trial) {
    Shape in_shape;
    Graph net = RandomNetwork(rng, &in_shape);
    compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
    opt.tiler.l1_budget_bytes = 2 * 1024;  // force aggressive tiling
    auto art = compiler::HtvmCompiler{opt}.Compile(net);
    if (!art.ok()) continue;  // tiny L1 may be infeasible; other trials cover
    Rng data_rng(trial * 131 + 7);
    const Tensor input = Tensor::Random(in_shape, DType::kInt8, data_rng);
    auto report = runtime::VerifyArtifact(*art, net,
                                          std::vector<Tensor>{input},
                                          /*simulate_tiles=*/true);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->bit_exact) << "trial " << trial;
  }
}

TEST(Property, RandomConvGeometriesTiledBitExact) {
  Rng rng(0xCAFE);
  const hw::DianaConfig cfg;
  for (int trial = 0; trial < 30; ++trial) {
    models::ConvLayerParams p;
    p.c = rng.UniformInt(1, 40);
    p.k = rng.UniformInt(1, 40);
    p.iy = rng.UniformInt(3, 24);
    p.ix = rng.UniformInt(3, 24);
    p.kh = p.kw = rng.UniformInt(0, 1) ? 3 : 1;
    p.stride = rng.UniformInt(1, 2);
    p.same_padding = rng.UniformInt(0, 1) == 1;
    p.shift = rng.UniformInt(4, 8);
    p.seed = rng.NextU64();
    if (!p.same_padding && (p.iy < p.kh || p.ix < p.kw)) continue;
    const auto spec = models::MakeConvSpec(p);
    dory::TilerOptions o;
    o.l1_budget_bytes = rng.UniformInt(1, 8) * 1024;
    auto sched =
        dory::BuildSchedule(spec, cfg, dory::AccelTarget::kDigital, o);
    if (!sched.ok()) continue;

    Rng data_rng(p.seed);
    const Tensor data = Tensor::Random(Shape{1, spec.c, spec.iy, spec.ix},
                                       DType::kInt8, data_rng);
    const Tensor weight = Tensor::Random(
        Shape{spec.k, spec.c, spec.kh, spec.kw}, DType::kInt8, data_rng);
    const Tensor bias = Tensor::Random(Shape{spec.k}, DType::kInt32,
                                       data_rng);
    auto tiled =
        dory::ExecuteTiled(*sched, std::vector<Tensor>{data}, &weight, &bias);
    ASSERT_TRUE(tiled.ok()) << tiled.status().ToString();

    auto acc = nn::Conv2d(data, weight, {spec.sy, spec.sx},
                          {spec.pad_t, spec.pad_l, spec.pad_b, spec.pad_r},
                          1);
    ASSERT_TRUE(acc.ok());
    auto biased = nn::BiasAdd(*acc, bias, 1);
    ASSERT_TRUE(biased.ok());
    const Tensor ref = RequantizeTensor(*biased, spec.requant);
    EXPECT_TRUE(tiled->SameAs(ref))
        << StrFormat("trial %d: c=%lld k=%lld hw=%lldx%lld k%lld s%lld",
                     trial, (long long)p.c, (long long)p.k, (long long)p.iy,
                     (long long)p.ix, (long long)p.kh, (long long)p.stride);
  }
}

TEST(Property, MemoryPlannerNeverOverlapsOnRandomGraphs) {
  Rng rng(0xD00D);
  for (int trial = 0; trial < 15; ++trial) {
    // Random DAG of relu/add ops with diamond shapes.
    Graph g;
    std::vector<NodeId> values;
    const i64 elems = rng.UniformInt(16, 512);
    values.push_back(g.AddInput("x", {Shape{1, elems}, DType::kInt8}));
    const i64 n_ops = rng.UniformInt(3, 12);
    for (i64 i = 0; i < n_ops; ++i) {
      const NodeId a =
          values[static_cast<size_t>(rng.UniformInt(0, static_cast<i64>(values.size()) - 1))];
      if (rng.UniformInt(0, 2) == 0 && values.size() >= 2) {
        const NodeId b2 =
            values[static_cast<size_t>(rng.UniformInt(0, static_cast<i64>(values.size()) - 1))];
        const NodeId sum = g.AddOp("add", {a, b2});
        values.push_back(
            g.AddOp("cast", {sum}, AttrMap{{"dtype", std::string("int8")}}));
      } else {
        values.push_back(g.AddOp("nn.relu", {a}));
      }
    }
    g.SetOutputs({values.back()});
    Graph lowered = tvmgen::LowerToKernels(g);
    const auto plan =
        compiler::PlanL2Memory(lowered, 0, 1 << 24, /*reuse=*/true);
    for (size_t i = 0; i < plan.buffers.size(); ++i) {
      for (size_t j = i + 1; j < plan.buffers.size(); ++j) {
        const auto& a = plan.buffers[i];
        const auto& b2 = plan.buffers[j];
        const bool time_overlap =
            a.def_time <= b2.last_use_time && b2.def_time <= a.last_use_time;
        const bool space_overlap = a.offset < b2.offset + b2.size &&
                                   b2.offset < a.offset + a.size;
        EXPECT_FALSE(time_overlap && space_overlap)
            << "trial " << trial << " buffers " << i << "," << j;
      }
    }
    // Reuse never exceeds the no-reuse arena.
    const auto no_reuse =
        compiler::PlanL2Memory(lowered, 0, 1 << 24, /*reuse=*/false);
    EXPECT_LE(plan.arena_bytes, no_reuse.arena_bytes);
  }
}

TEST(Property, RequantMonotoneAndBounded) {
  Rng rng(0xABCD);
  for (int trial = 0; trial < 1000; ++trial) {
    const i64 a = rng.UniformInt(-1'000'000, 1'000'000);
    const i64 b = a + rng.UniformInt(0, 1000);
    RequantParams p{.shift = rng.UniformInt(0, 12),
                    .relu = rng.UniformInt(0, 1) == 1,
                    .channel_shifts = {}};
    const i8 ra = RequantizeValue(a, p);
    const i8 rb = RequantizeValue(b, p);
    EXPECT_LE(ra, rb);  // monotone
    EXPECT_GE(ra, p.relu ? 0 : -128);
    EXPECT_LE(ra, 127);
  }
}

TEST(Property, TernaryPackRoundTripRandomSizes) {
  Rng rng(0x7777);
  for (int trial = 0; trial < 20; ++trial) {
    const i64 n = rng.UniformInt(1, 4096);
    Tensor t = Tensor::Random(Shape{n}, DType::kTernary, rng);
    const auto packed = PackTernary(t);
    EXPECT_EQ(static_cast<i64>(packed.size()), (n + 3) / 4);
    EXPECT_TRUE(UnpackTernary(packed, t.shape()).SameAs(t));
  }
}

}  // namespace
}  // namespace htvm
