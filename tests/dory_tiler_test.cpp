#include <gtest/gtest.h>

#include "dory/schedule.hpp"
#include "models/layer_zoo.hpp"
#include "support/math_utils.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace htvm::dory {
namespace {

using models::ConvLayerParams;
using models::MakeConvSpec;
using models::MakeDenseSpec;

const hw::DianaConfig kCfg = hw::DianaConfig::Default();

TilerOptions WithBudget(i64 bytes) {
  TilerOptions o;
  o.l1_budget_bytes = bytes;
  return o;
}

TEST(Tiler, SmallLayerFitsUntiled) {
  ConvLayerParams p;
  p.c = 16;
  p.k = 16;
  p.iy = p.ix = 16;
  auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kDigital, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->needs_tiling);
  EXPECT_EQ(sol->TileCount(), 1);
  EXPECT_EQ(sol->c_t, 16);
  EXPECT_EQ(sol->oy_t, 16);
}

TEST(Tiler, LargeLayerNeedsTiling) {
  ConvLayerParams p;
  p.c = 64;
  p.k = 64;
  p.iy = p.ix = 64;  // input alone is 256 kB
  auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kDigital, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->needs_tiling);
  EXPECT_GT(sol->TileCount(), 1);
}

TEST(Tiler, RespectsL1Constraint) {
  ConvLayerParams p;
  p.c = 64;
  p.k = 64;
  p.iy = p.ix = 32;
  for (const i64 budget : {256 * 1024, 64 * 1024, 16 * 1024, 4 * 1024}) {
    auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kDigital,
                           WithBudget(budget));
    ASSERT_TRUE(sol.ok()) << "budget " << budget;
    EXPECT_LT(sol->l1_bytes, budget);
  }
}

TEST(Tiler, InfeasibleBudgetReported) {
  ConvLayerParams p;
  p.c = 64;
  p.k = 64;
  p.iy = p.ix = 32;
  // Even a 1x1x1x1 tile needs a 3x3 input halo: 9 B double-buffered plus a
  // psum word exceeds 16 B.
  auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kDigital,
                         WithBudget(16));
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kResourceExhausted);
}

TEST(Tiler, PeHeuristicPrefersChannelMultiplesOf16) {
  // C = 96: candidates include 32/48/96...; with heuristics the choice must
  // land on a multiple of 16 when one is feasible.
  ConvLayerParams p;
  p.c = 96;
  p.k = 96;
  p.iy = p.ix = 32;
  TilerOptions with = WithBudget(24 * 1024);
  auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kDigital, with);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->needs_tiling);
  EXPECT_EQ(sol->c_t % 16, 0) << "c_t=" << sol->c_t;
}

TEST(Tiler, DmaHeuristicReducesTransferFragmentation) {
  // The DMA heuristic exists to minimize non-contiguous input transfers
  // (Sec. III-C): with it enabled the chosen tile must keep the input rows
  // contiguous (full-width tiles) or at least not transfer activations less
  // efficiently than the memory-only objective.
  ConvLayerParams p;
  p.c = 32;
  p.k = 32;
  p.iy = p.ix = 64;
  const auto spec = MakeConvSpec(p);
  TilerOptions with = WithBudget(24 * 1024);
  with.enable_dma_heuristic = true;
  TilerOptions without = with;
  without.enable_dma_heuristic = false;
  without.enable_pe_heuristics = false;
  auto sched_dma = BuildSchedule(spec, kCfg, AccelTarget::kDigital, with);
  auto sched_plain =
      BuildSchedule(spec, kCfg, AccelTarget::kDigital, without);
  ASSERT_TRUE(sched_dma.ok() && sched_plain.ok());
  EXPECT_TRUE(sched_dma->solution.ix_t == spec.ix ||
              sched_dma->act_dma_cycles <= sched_plain->act_dma_cycles);
  EXPECT_LE(sched_dma->full_cycles, sched_plain->full_cycles);
}

TEST(Tiler, PsumFlagSetWhenChannelsTiled) {
  ConvLayerParams p;
  p.c = 256;
  p.k = 32;
  p.iy = p.ix = 32;  // 256 kB input forces C tiling
  auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kDigital,
                         WithBudget(32 * 1024));
  ASSERT_TRUE(sol.ok());
  if (sol->c_t < 256) {
    EXPECT_TRUE(sol->psum);
  }
}

TEST(Tiler, AnalogNeverTilesChannels) {
  ConvLayerParams p;
  p.c = 64;
  p.k = 64;
  p.iy = p.ix = 64;
  p.weight_dtype = DType::kTernary;
  auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kAnalog,
                         WithBudget(32 * 1024));
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->c_t, 64);
  EXPECT_EQ(sol->n_c, 1);
  EXPECT_FALSE(sol->psum);
}

TEST(Tiler, DenseTilesWhenWeightMemoryOverflows) {
  // 640x128 int8 weights = 80 kB > 64 kB digital weight memory.
  auto spec = MakeDenseSpec(640, 128);
  auto sol = SolveTiling(spec, kCfg, AccelTarget::kDigital, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->needs_tiling);
  EXPECT_LT(sol->c_t * sol->k_t, 64 * 1024);
}

TEST(Tiler, DwConvTiesOutputChannelsToInput) {
  ConvLayerParams p;
  p.depthwise = true;
  p.c = 64;
  p.iy = p.ix = 64;
  auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kDigital,
                         WithBudget(16 * 1024));
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->k_t, sol->c_t);
  EXPECT_FALSE(sol->psum);
}

TEST(Tiler, TileL1BytesAccountsDoubleBuffering) {
  ConvLayerParams p;
  p.c = 16;
  p.k = 16;
  p.iy = p.ix = 16;
  auto spec = MakeConvSpec(p);
  TilerOptions db;
  db.double_buffer = true;
  TilerOptions sb;
  sb.double_buffer = false;
  const i64 with_db = TileL1Bytes(spec, db, 16, 16, 8, 8, false);
  const i64 without = TileL1Bytes(spec, sb, 16, 16, 8, 8, false);
  EXPECT_EQ(with_db, 2 * without);
}

TEST(Tiler, ObjectiveMonotoneInMemoryUse) {
  // With heuristics off, the solver maximizes memory utilization: the
  // winning tile must use more than half the budget unless the layer is
  // smaller than that.
  ConvLayerParams p;
  p.c = 64;
  p.k = 64;
  p.iy = p.ix = 32;
  TilerOptions o = WithBudget(32 * 1024);
  o.enable_pe_heuristics = false;
  o.enable_dma_heuristic = false;
  auto sol = SolveTiling(MakeConvSpec(p), kCfg, AccelTarget::kDigital, o);
  ASSERT_TRUE(sol.ok());
  EXPECT_GT(sol->l1_bytes, 16 * 1024);
}

// Parameterized sweep: every solution satisfies Eq. 2 and covers the layer.
struct SweepCase {
  i64 c, k, hw, budget;
};

class TilerSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TilerSweep, SolutionsAreFeasibleAndCovering) {
  const SweepCase sc = GetParam();
  ConvLayerParams p;
  p.c = sc.c;
  p.k = sc.k;
  p.iy = p.ix = sc.hw;
  const auto spec = MakeConvSpec(p);
  auto sol = SolveTiling(spec, kCfg, AccelTarget::kDigital,
                         WithBudget(sc.budget));
  if (!sol.ok()) GTEST_SKIP() << "infeasible at this budget";
  EXPECT_LT(sol->l1_bytes, sc.budget);
  EXPECT_GE(sol->n_c * sol->c_t, spec.c);
  EXPECT_GE(sol->n_k * sol->k_t, spec.k);
  EXPECT_GE(sol->n_y * sol->oy_t, spec.oy);
  EXPECT_GE(sol->n_x * sol->ox_t, spec.ox);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TilerSweep,
    ::testing::Values(SweepCase{16, 16, 32, 8 * 1024},
                      SweepCase{32, 64, 32, 16 * 1024},
                      SweepCase{64, 64, 64, 32 * 1024},
                      SweepCase{128, 128, 8, 8 * 1024},
                      SweepCase{3, 16, 32, 4 * 1024},
                      SweepCase{96, 96, 16, 12 * 1024},
                      SweepCase{64, 64, 64, 256 * 1024}));

// ---------------------------------------------------------------------------
// Property-based tests: random layer geometries from a seeded Rng. Either
// the solver reports ResourceExhausted, or the solution must satisfy the
// structural invariants — no hand-picked geometry, so these catch corner
// cases (prime dims, stride-2 halos, tiny budgets) the sweep above misses.
// ---------------------------------------------------------------------------

ConvLayerParams RandomConvParams(Rng& rng) {
  ConvLayerParams p;
  p.c = rng.UniformInt(1, 128);
  p.k = rng.UniformInt(1, 128);
  p.iy = rng.UniformInt(3, 64);
  p.ix = rng.UniformInt(3, 64);
  p.kh = p.kw = rng.UniformInt(0, 1) ? 3 : 1;
  p.stride = rng.UniformInt(0, 3) ? 1 : 2;
  p.same_padding = rng.UniformInt(0, 1) == 1;
  if (rng.UniformInt(0, 4) == 0) {
    p.depthwise = true;
    p.k = p.c;
    p.kh = p.kw = 3;
  }
  return p;
}

// The structural invariants every accepted solution must satisfy:
// tiles fit in L1, the grid covers the tensor exactly once (n_* is the
// ceiling division, so no tile is dropped and none is scheduled twice),
// and no tile dimension collapses to zero.
void CheckSolutionInvariants(const AccelLayerSpec& spec,
                             const TileSolution& sol, i64 budget,
                             const std::string& context) {
  // Eq. 2: the live buffer set fits strictly inside the budget.
  EXPECT_LT(sol.l1_bytes, budget) << context;
  EXPECT_GT(sol.l1_bytes, 0) << context;

  // No zero-size tiles, and no tile exceeds the layer dimension.
  EXPECT_GE(sol.c_t, 1) << context;
  EXPECT_GE(sol.k_t, 1) << context;
  EXPECT_GE(sol.oy_t, 1) << context;
  EXPECT_GE(sol.ox_t, 1) << context;
  EXPECT_LE(sol.c_t, spec.c) << context;
  EXPECT_LE(sol.k_t, spec.k) << context;
  EXPECT_LE(sol.oy_t, spec.oy) << context;
  EXPECT_LE(sol.ox_t, spec.ox) << context;

  // Exactly-once coverage: the grid is the ceiling division of each dim,
  // so (n-1) full tiles plus a final (possibly partial, non-empty) tile
  // tile the tensor with no overlap and no gap. For dwconv/add the output
  // channels ride with the input channels (k_t == c_t), so their k grid is
  // the c grid and n_k stays 1.
  const bool k_follows_c =
      spec.kind == LayerKind::kDwConv2d || spec.kind == LayerKind::kAdd;
  EXPECT_EQ(sol.n_c, CeilDiv(spec.c, sol.c_t)) << context;
  EXPECT_EQ(sol.n_k, k_follows_c ? 1 : CeilDiv(spec.k, sol.k_t)) << context;
  EXPECT_EQ(sol.n_y, CeilDiv(spec.oy, sol.oy_t)) << context;
  EXPECT_EQ(sol.n_x, CeilDiv(spec.ox, sol.ox_t)) << context;
  EXPECT_GT(spec.c - (sol.n_c - 1) * sol.c_t, 0) << context;
  if (!k_follows_c) {
    EXPECT_GT(spec.k - (sol.n_k - 1) * sol.k_t, 0) << context;
  }
  EXPECT_GT(spec.oy - (sol.n_y - 1) * sol.oy_t, 0) << context;
  EXPECT_GT(spec.ox - (sol.n_x - 1) * sol.ox_t, 0) << context;

  // An untiled solution must be the whole layer; a tiled one must not be.
  if (!sol.needs_tiling) {
    EXPECT_EQ(sol.TileCount(), 1) << context;
    EXPECT_EQ(sol.c_t, spec.c) << context;
    EXPECT_EQ(sol.k_t, spec.k) << context;
  } else {
    EXPECT_GT(sol.TileCount(), 1) << context;
  }

  // psum accounting is tied to channel tiling for reducing kinds.
  if (sol.psum) {
    EXPECT_LT(sol.c_t, spec.c) << context;
  }
}

// CheckTilingFits answers SolveTiling's feasibility question exactly: the
// same status code and, when nothing fits, the same message. `sol` is
// SolveTiling's answer for the same arguments. Returns whether it fit.
bool FitCheckAgrees(const AccelLayerSpec& spec, AccelTarget target,
                    i64 budget, const Result<TileSolution>& sol,
                    const std::string& context) {
  const Status fits = CheckTilingFits(spec, kCfg, target, WithBudget(budget));
  EXPECT_EQ(fits.code(), sol.status().code()) << context;
  EXPECT_EQ(fits.message(), sol.status().message()) << context;
  return fits.ok();
}

// The same at a budget the trial's own solve did not use.
bool FitCheckAgrees(const AccelLayerSpec& spec, AccelTarget target,
                    i64 budget, const std::string& context) {
  return FitCheckAgrees(spec, target, budget,
                        SolveTiling(spec, kCfg, target, WithBudget(budget)),
                        context + StrFormat(" tight=%lld",
                                            static_cast<long long>(budget)));
}

// Tallies the tight-budget fit checks, which must see both answers.
struct FitTally {
  int fits = 0, exhausted = 0;
  void Add(bool fit) { ++(fit ? fits : exhausted); }
};

// A residual add over the conv layer's input geometry.
AccelLayerSpec AddSpecOf(const ConvLayerParams& p) {
  AccelLayerSpec spec;
  spec.kind = LayerKind::kAdd;
  spec.c = spec.k = p.c;
  spec.iy = spec.oy = p.iy;
  spec.ix = spec.ox = p.ix;
  return spec;
}

// A transformer projection with the dense layer's K and N over `rows`.
AccelLayerSpec MatmulSpecOf(i64 in, i64 out, i64 rows) {
  AccelLayerSpec spec;
  spec.kind = LayerKind::kMatmul;
  spec.c = in;
  spec.k = out;
  spec.oy = spec.iy = rows;
  return spec;
}

TEST(TilerProperty, RandomConvLayersSatisfyInvariants) {
  Rng rng(0xD0121ull);
  const i64 budgets[] = {2 * 1024, 8 * 1024, 32 * 1024, 256 * 1024};
  int solved = 0;
  FitTally tight;
  for (int trial = 0; trial < 200; ++trial) {
    const ConvLayerParams p = RandomConvParams(rng);
    const auto spec = MakeConvSpec(p);
    const i64 budget = budgets[trial % 4];
    const std::string context = StrFormat(
        "trial %d: c=%lld k=%lld iy=%lld ix=%lld kh=%lld s=%lld dw=%d "
        "budget=%lld",
        trial, static_cast<long long>(p.c), static_cast<long long>(p.k),
        static_cast<long long>(p.iy), static_cast<long long>(p.ix),
        static_cast<long long>(p.kh), static_cast<long long>(p.stride),
        p.depthwise ? 1 : 0, static_cast<long long>(budget));
    auto sol = SolveTiling(spec, kCfg, AccelTarget::kDigital,
                           WithBudget(budget));
    // Fit check == solve for this conv/dwconv, and at a budget around the
    // smallest tile's footprint, for it and for an add over its input.
    FitCheckAgrees(spec, AccelTarget::kDigital, budget, sol, context);
    const i64 tight_budget = 8 + trial % 24;
    tight.Add(FitCheckAgrees(spec, AccelTarget::kDigital, tight_budget,
                             context));
    const AccelLayerSpec add = AddSpecOf(p);
    FitCheckAgrees(add, AccelTarget::kDigital, budget, context + " add");
    tight.Add(FitCheckAgrees(add, AccelTarget::kDigital, tight_budget,
                             context + " add"));
    if (!sol.ok()) {
      // The only acceptable failure is a typed resource-exhausted report.
      EXPECT_EQ(sol.status().code(), StatusCode::kResourceExhausted)
          << context;
      continue;
    }
    ++solved;
    CheckSolutionInvariants(spec, *sol, budget, context);
    if (spec.kind == LayerKind::kDwConv2d) {
      EXPECT_EQ(sol->k_t, sol->c_t) << context;
      EXPECT_EQ(sol->n_k, 1) << context;
      EXPECT_FALSE(sol->psum) << context;
    }
  }
  // The generator must actually exercise the solver, not just the
  // infeasible path.
  EXPECT_GT(solved, 100);
  EXPECT_GT(tight.fits, 0);
  EXPECT_GT(tight.exhausted, 0);
}

TEST(TilerProperty, RandomAnalogLayersNeverTileChannels) {
  Rng rng(0xA7A106ull);
  int solved = 0;
  FitTally tight;
  for (int trial = 0; trial < 100; ++trial) {
    ConvLayerParams p = RandomConvParams(rng);
    p.depthwise = false;
    p.k = rng.UniformInt(1, 128);
    p.weight_dtype = DType::kTernary;
    const auto spec = MakeConvSpec(p);
    const i64 budget = 32 * 1024;
    const std::string context = StrFormat(
        "trial %d: c=%lld k=%lld iy=%lld ix=%lld", trial,
        static_cast<long long>(p.c), static_cast<long long>(p.k),
        static_cast<long long>(p.iy), static_cast<long long>(p.ix));
    auto sol =
        SolveTiling(spec, kCfg, AccelTarget::kAnalog, WithBudget(budget));
    // Analog tiles keep every input channel, so the smallest tile's
    // footprint scales with C * kh * kw.
    FitCheckAgrees(spec, AccelTarget::kAnalog, budget, sol, context);
    tight.Add(FitCheckAgrees(spec, AccelTarget::kAnalog,
                             64 + (trial % 16) * 64, context));
    if (!sol.ok()) {
      EXPECT_EQ(sol.status().code(), StatusCode::kResourceExhausted)
          << context;
      continue;
    }
    ++solved;
    CheckSolutionInvariants(spec, *sol, budget, context);
    // The analog macro spatially unrolls the full input patch: channels are
    // never split and there are no partial sums.
    EXPECT_EQ(sol->c_t, spec.c) << context;
    EXPECT_EQ(sol->n_c, 1) << context;
    EXPECT_FALSE(sol->psum) << context;
  }
  EXPECT_GT(solved, 30);
  EXPECT_GT(tight.fits, 0);
  EXPECT_GT(tight.exhausted, 0);
}

TEST(TilerProperty, RandomDenseLayersSatisfyInvariants) {
  Rng rng(0xDE25Eull);
  int solved = 0;
  FitTally tight;
  for (int trial = 0; trial < 100; ++trial) {
    const i64 in = rng.UniformInt(1, 2048);
    const i64 out = rng.UniformInt(1, 512);
    const auto spec = MakeDenseSpec(in, out);
    const i64 budget = (trial % 2) ? 16 * 1024 : 64 * 1024;
    const std::string context = StrFormat(
        "trial %d: in=%lld out=%lld budget=%lld", trial,
        static_cast<long long>(in), static_cast<long long>(out),
        static_cast<long long>(budget));
    auto sol =
        SolveTiling(spec, kCfg, AccelTarget::kDigital, WithBudget(budget));
    // Fit check == solve for the dense layer, and on both targets for a
    // matmul with its K and N, at the trial budget and at one around the
    // smallest tile's footprint.
    FitCheckAgrees(spec, AccelTarget::kDigital, budget, sol, context);
    const i64 tight_budget = 2 + trial % 8;
    tight.Add(FitCheckAgrees(spec, AccelTarget::kDigital, tight_budget,
                             context));
    const AccelLayerSpec matmul = MatmulSpecOf(in, out, 1 + trial % 64);
    for (const AccelTarget target :
         {AccelTarget::kDigital, AccelTarget::kAnalog}) {
      const std::string mm_context =
          context + " matmul on " + AccelTargetName(target);
      FitCheckAgrees(matmul, target, budget, mm_context);
      tight.Add(FitCheckAgrees(matmul, target, tight_budget, mm_context));
    }
    if (!sol.ok()) {
      EXPECT_EQ(sol.status().code(), StatusCode::kResourceExhausted)
          << context;
      continue;
    }
    ++solved;
    CheckSolutionInvariants(spec, *sol, budget, context);
  }
  EXPECT_GT(solved, 50);
  EXPECT_GT(tight.fits, 0);
  EXPECT_GT(tight.exhausted, 0);
}

}  // namespace
}  // namespace htvm::dory
