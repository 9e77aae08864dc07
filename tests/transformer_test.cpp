// Transformer workload battery (docs/transformer_workload.md).
//
// Pins the attention subsystem end-to-end:
//   1. Differential — the tiny encoder transformer is bit-exact against
//      the reference nn interpreter on every registered SoC and every
//      deployment config, with and without tile-level simulation.
//   2. Partitioning — diana offloads whole MHSA blocks (diana.mhsa) to the
//      digital array; the reduced SoCs (no analog array / scalar host)
//      fall back to per-op CPU kernels without error.
//   3. Determinism — artifacts are byte-identical across compile-thread
//      counts, and outputs are bit-exact across tile-schedule strategies.
//   4. Numerics — int8 softmax at extreme magnitudes, layernorm on
//      zero-variance rows, matmul tiling under a pathological L1 budget.
//   5. Deployment — the emitted CPU-only C compiles with the host `cc` and
//      reproduces the interpreter bit-for-bit (integer layernorm, GELU
//      LUT, generic attention-body emission).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "emit_harness.hpp"
#include "hab_diff.hpp"
#include "hw/soc.hpp"
#include "models/transformer.hpp"
#include "nn/interpreter.hpp"
#include "nn/kernels.hpp"
#include "runtime/verify.hpp"
#include "support/rng.hpp"
#include "vm/hab.hpp"

namespace htvm {
namespace {

const char* kFamilies[] = {"diana",          "diana-l1half", "diana-l2x2",
                           "diana-noanalog", "diana-pe32",   "diana-scalar"};

compiler::Artifact MustCompile(const Graph& g,
                               const compiler::CompileOptions& opt) {
  auto artifact = compiler::HtvmCompiler{opt}.Compile(g);
  HTVM_CHECK_MSG(artifact.ok(), "compile failed");
  return std::move(*artifact);
}

Tensor TransformerInput(u64 seed) {
  Rng rng(seed);
  return Tensor::Random(Shape{16, 32}, DType::kInt8, rng);
}

bool HasKernelWithPrefix(const compiler::Artifact& art,
                         const std::string& prefix) {
  for (const auto& k : art.kernels) {
    if (k.name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// --- 1. cross-SoC differential ---------------------------------------------

TEST(TransformerDifferential, BitExactOnEverySocAndConfig) {
  const Graph net = models::BuildTinyTransformerDefault();
  const Tensor input = TransformerInput(42);
  for (const char* family : kFamilies) {
    auto soc = hw::FindSoc(family);
    ASSERT_TRUE(soc.ok()) << family;
    for (const bool plain_tvm : {false, true}) {
      compiler::CompileOptions opt =
          plain_tvm ? compiler::CompileOptions::PlainTvm()
                    : compiler::CompileOptions{};
      opt.soc = *soc;
      const auto art = MustCompile(net, opt);
      for (const bool simulate_tiles : {false, true}) {
        auto report = runtime::VerifyArtifact(art, net, {&input, 1},
                                              simulate_tiles);
        ASSERT_TRUE(report.ok())
            << family << " tvm=" << plain_tvm << ": "
            << report.status().ToString();
        EXPECT_TRUE(report->bit_exact)
            << family << " tvm=" << plain_tvm
            << " simulate_tiles=" << simulate_tiles << ": "
            << report->mismatched_elements << "/" << report->total_elements
            << " elements differ (max |diff| " << report->max_abs_diff
            << ")";
      }
    }
  }
}

TEST(TransformerDifferential, DeeperModelBitExactOnDiana) {
  // A non-default geometry: 1 block, 4 heads, wider model dim.
  const Graph net = models::TinyTransformer(/*depth=*/1, /*heads=*/4,
                                            /*d_model=*/64, /*seq_len=*/8);
  Rng rng(7);
  const Tensor input = Tensor::Random(Shape{8, 64}, DType::kInt8, rng);
  const auto art = MustCompile(net, compiler::CompileOptions{});
  auto report = runtime::VerifyArtifact(art, net, {&input, 1},
                                        /*simulate_tiles=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bit_exact)
      << report->mismatched_elements << "/" << report->total_elements;
}

// --- 2. partitioning --------------------------------------------------------

TEST(TransformerPartitioning, MhsaBlocksLandOnDigitalArray) {
  const Graph net = models::BuildTinyTransformerDefault();
  const auto art = MustCompile(net, compiler::CompileOptions{});
  EXPECT_TRUE(HasKernelWithPrefix(art, "diana.mhsa"))
      << "whole-block attention offload missing from the dispatch table";
  EXPECT_TRUE(HasKernelWithPrefix(art, "diana.matmul"))
      << "FFN matmul chains should take the diana.matmul path";
  for (const auto& k : art.kernels) {
    if (k.name.rfind("diana.mhsa", 0) == 0) {
      EXPECT_GT(k.perf.macs, 0) << k.name;
      EXPECT_GT(k.perf.full_cycles, 0) << k.name;
    }
  }
}

TEST(TransformerPartitioning, ReducedSocsFallBackToPerOpCpu) {
  const Graph net = models::BuildTinyTransformerDefault();
  for (const char* family : {"diana-noanalog", "diana-scalar"}) {
    auto soc = hw::FindSoc(family);
    ASSERT_TRUE(soc.ok());
    compiler::CompileOptions opt;
    opt.soc = *soc;
    const auto art = MustCompile(net, opt);
    EXPECT_FALSE(HasKernelWithPrefix(art, "diana.mhsa")) << family;
    EXPECT_FALSE(HasKernelWithPrefix(art, "diana.matmul")) << family;
    // Attention still deploys: per-op matmul composites on the CPU path.
    EXPECT_TRUE(HasKernelWithPrefix(art, "tvm.matmul")) << family;
    const Tensor input = TransformerInput(42);
    auto report = runtime::VerifyArtifact(art, net, {&input, 1});
    ASSERT_TRUE(report.ok()) << family << ": " << report.status().ToString();
    EXPECT_TRUE(report->bit_exact) << family;
  }
}

// --- 3. determinism ---------------------------------------------------------

TEST(TransformerDeterminism, ArtifactIdenticalAcrossCompileThreads) {
  const Graph net = models::BuildTinyTransformerDefault();
  compiler::CompileOptions sequential;
  sequential.compile_threads = 1;
  compiler::CompileOptions parallel;
  parallel.compile_threads = 4;
  const auto a = MustCompile(net, sequential);
  const auto b = MustCompile(net, parallel);
  EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHabForDiff(a),
                      vm::SerializeHabForDiff(b));
}

TEST(TransformerDeterminism, OutputsBitExactAcrossScheduleStrategies) {
  const Graph net = models::BuildTinyTransformerDefault();
  const Tensor input = TransformerInput(123);
  auto ref = nn::RunGraph(net, std::vector<Tensor>{input});
  ASSERT_TRUE(ref.ok());
  for (const auto kind : {dory::ScheduleSearchKind::kHeuristic,
                          dory::ScheduleSearchKind::kGraphBeam}) {
    compiler::CompileOptions opt;
    opt.schedule_search.kind = kind;
    const auto art = MustCompile(net, opt);
    for (const bool simulate_tiles : {false, true}) {
      auto report = runtime::VerifyArtifact(art, net, {&input, 1},
                                            simulate_tiles);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->bit_exact)
          << "strategy " << static_cast<int>(kind)
          << " simulate_tiles=" << simulate_tiles;
    }
  }
}

// --- 4. numerical edge cases ------------------------------------------------

TEST(TransformerNumerics, SoftmaxStableAtInt8Extremes) {
  // Rows mixing the full int8 range must neither overflow nor produce
  // out-of-grid values; the winner takes (nearly) all of the 127 budget.
  Tensor in(Shape{2, 8}, DType::kInt8);
  const i64 row0[] = {127, -128, -128, -128, -128, -128, -128, -128};
  const i64 row1[] = {127, 127, -128, -128, 0, 64, -64, 127};
  for (i64 i = 0; i < 8; ++i) {
    in.SetFlat(i, row0[i]);
    in.SetFlat(8 + i, row1[i]);
  }
  auto out = nn::Softmax(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (i64 i = 0; i < out->NumElements(); ++i) {
    EXPECT_GE(out->GetFlat(i), 0) << "element " << i;
    EXPECT_LE(out->GetFlat(i), 127) << "element " << i;
  }
  // Row 0: one dominant logit 255 levels above the rest.
  EXPECT_EQ(out->GetFlat(0), 127);
  for (i64 i = 1; i < 8; ++i) EXPECT_EQ(out->GetFlat(i), 0);
  // Row 1: the three tied maxima share the mass equally.
  EXPECT_EQ(out->GetFlat(8), out->GetFlat(9));
  EXPECT_EQ(out->GetFlat(8), out->GetFlat(15));
  EXPECT_GT(out->GetFlat(8), 30);
}

TEST(TransformerNumerics, LayerNormZeroVarianceRowsAreZero) {
  // Constant rows have zero variance; the +1 epsilon must keep the
  // division defined and map the row to exactly zero.
  Tensor in(Shape{3, 16}, DType::kInt8);
  for (i64 c = 0; c < 16; ++c) {
    in.SetFlat(c, 0);
    in.SetFlat(16 + c, 127);
    in.SetFlat(32 + c, -128);
  }
  auto out = nn::LayerNorm(in);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (i64 i = 0; i < out->NumElements(); ++i) {
    EXPECT_EQ(out->GetFlat(i), 0) << "element " << i;
  }
}

TEST(TransformerNumerics, MatmulTilingExhaustsPathologicalL1) {
  dory::AccelLayerSpec spec;
  spec.kind = dory::LayerKind::kMatmul;
  spec.c = 64;
  spec.k = 64;
  spec.oy = spec.iy = 16;
  dory::TilerOptions options;
  // A double-buffered 1x1x1 tile set already needs 2 B of input plus a
  // 4 B partial sum; 4 B cannot hold even that.
  options.l1_budget_bytes = 4;
  const auto tiling =
      dory::SolveTiling(spec, hw::SocDescription::Diana().config,
                        dory::AccelTarget::kDigital, options);
  ASSERT_FALSE(tiling.ok());
  EXPECT_EQ(tiling.status().code(), StatusCode::kResourceExhausted)
      << tiling.status().ToString();
  // The compiler-level consequence: the dispatcher rejects the layer and
  // the whole model still compiles (CPU fallback), it does not error out.
  compiler::CompileOptions opt;
  opt.tiler.l1_budget_bytes = 4;
  const auto art = MustCompile(models::BuildTinyTransformerDefault(), opt);
  EXPECT_FALSE(HasKernelWithPrefix(art, "diana.mhsa"));
  EXPECT_FALSE(HasKernelWithPrefix(art, "diana.matmul"));
}

// --- 5. emitted-C deployment ------------------------------------------------

TEST(TransformerDeployment, EmittedCpuCMatchesInterpreter) {
  if (!emit_harness::HostCcAvailable()) GTEST_SKIP() << "no host C compiler";
  const Graph net = models::BuildTinyTransformerDefault();
  const auto art = MustCompile(net, compiler::CompileOptions::PlainTvm());
  auto emitted = compiler::EmitArtifactC(art, "tfnet");
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();

  const Tensor input = TransformerInput(17);
  auto ref = nn::RunGraph(net, std::vector<Tensor>{input});
  ASSERT_TRUE(ref.ok());
  emit_harness::ExpectEmittedRunMatches(*emitted, "tfnet", input,
                                        ref.value()[0]);
}

TEST(TransformerDeployment, EmittedAccelCCompiles) {
  if (!emit_harness::HostCcAvailable()) GTEST_SKIP() << "no host C compiler";
  const Graph net = models::BuildTinyTransformerDefault();
  const auto art = MustCompile(net, compiler::CompileOptions{});
  auto emitted = compiler::EmitArtifactC(art, "tfaccel");
  ASSERT_TRUE(emitted.ok()) << emitted.status().ToString();
  const std::string dir = ::testing::TempDir() + "/htvm_emit_tf_accel";
  std::system(("mkdir -p " + dir).c_str());
  ASSERT_TRUE(emitted->WriteTo(dir).ok());
  const std::string cmd = "cc -std=c11 -O0 -c -o " + dir + "/tfaccel.o " +
                          dir + "/tfaccel.c 2> " + dir + "/cc.log";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "emitted accelerated C failed to compile; see " << dir << "/cc.log";
}

}  // namespace
}  // namespace htvm
