// The schedule-search framework contract (docs/schedule_search.md):
//
//   1. `heuristic` is byte-identical to the legacy SolveTiling/BuildSchedule
//      path — the golden-pinned default costs nothing and changes nothing.
//   2. The cost-guided `graph-beam` search only ever deploys L1-feasible
//      schedules, never loses to the heuristic on simulated latency (the
//      heuristic pick is always a finalist), executes bit-exact with the
//      heuristic schedule on real tensors, and is deterministic —
//      including across CompileKernels thread counts.
//   3. The hw::CostModel ranks candidates in (nearly) simulator order —
//      pinned as a Spearman rank correlation over the candidate set.
//   4. A whole-network graph-beam compile is byte-identical across
//      CompileKernels thread counts.
//   5. An infeasibly small L1 budget is a typed ResourceExhausted naming
//      the layer and the budget, not a crash or a silent fallback.
//   6. The streamed beam shortlist is exactly the head of the full sort of
//      the candidate walk, and a layer with ~16M candidates compiles in
//      bounded memory with both kinds.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "compiler/pipeline.hpp"
#include "dory/schedule_search.hpp"
#include "dory/tiled_exec.hpp"
#include "hab_diff.hpp"
#include "hw/cost_model.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "support/rng.hpp"
#include "vm/hab.hpp"

namespace htvm::dory {
namespace {

const hw::DianaConfig kCfg = hw::DianaConfig::Default();

TilerOptions WithBudget(i64 bytes) {
  TilerOptions o;
  o.l1_budget_bytes = bytes;
  return o;
}

ScheduleSearchOptions WithKind(ScheduleSearchKind kind) {
  ScheduleSearchOptions s;
  s.kind = kind;
  return s;
}

// The schedule_search.cpp candidate -> hw::TiledLayerGeom flattening,
// reproduced here so the rank-correlation test scores candidates exactly
// the way the beam does.
hw::TiledLayerGeom ToGeom(const AccelLayerSpec& spec, const TilerOptions& opt,
                          const TileSolution& sol) {
  hw::TiledLayerGeom g;
  switch (spec.kind) {
    case LayerKind::kConv2d: g.op = hw::TiledOp::kConv2d; break;
    case LayerKind::kDwConv2d: g.op = hw::TiledOp::kDwConv2d; break;
    case LayerKind::kDense: g.op = hw::TiledOp::kDense; break;
    case LayerKind::kAdd: g.op = hw::TiledOp::kAdd; break;
    case LayerKind::kMatmul: g.op = hw::TiledOp::kMatmul; break;
  }
  g.c = spec.c;
  g.iy = spec.iy;
  g.ix = spec.ix;
  g.k = spec.k;
  g.oy = spec.oy;
  g.ox = spec.ox;
  g.kh = spec.kh;
  g.kw = spec.kw;
  g.c_t = sol.c_t;
  g.k_t = sol.k_t;
  g.oy_t = sol.oy_t;
  g.ox_t = sol.ox_t;
  g.iy_t = sol.iy_t;
  g.ix_t = sol.ix_t;
  g.double_buffer = opt.double_buffer;
  return g;
}

// The whole feasible candidate walk, collected (test-side only: the
// search itself never holds it).
std::vector<TileSolution> Walk(const AccelLayerSpec& spec, AccelTarget target,
                               const TilerOptions& tiler) {
  std::vector<TileSolution> all;
  ForEachTileCandidate(spec, kCfg, target, tiler,
                       [&all](const TileSolution& s) {
                         all.push_back(s);
                         return true;
                       });
  return all;
}

bool SameSolution(const TileSolution& a, const TileSolution& b) {
  return a.c_t == b.c_t && a.k_t == b.k_t && a.oy_t == b.oy_t &&
         a.ox_t == b.ox_t && a.iy_t == b.iy_t && a.ix_t == b.ix_t &&
         a.n_c == b.n_c && a.n_k == b.n_k && a.n_y == b.n_y &&
         a.n_x == b.n_x && a.needs_tiling == b.needs_tiling &&
         a.psum == b.psum;
}

// ---------------------------------------------------------------------------
// 0. Bounded memory. First in the file: the forked child starts with the
//    parent's resident pages, which are smallest before any other test.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(ScheduleSearchMemory, LargeConvCompilesInBoundedMemory) {
  // All four tile dims at 64: ~16M candidate (c, k, oy, ox) shapes, about
  // 1.7 GB if they were ever held at once.
  models::ConvLayerParams p;
  p.c = 64;
  p.k = 64;
  p.iy = p.ix = 64;
  const Graph net = models::MakeConvLayerGraph(p);
  for (ScheduleSearchKind kind :
       {ScheduleSearchKind::kHeuristic, ScheduleSearchKind::kGraphBeam}) {
    SCOPED_TRACE(ScheduleSearchKindName(kind));
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Single-threaded child: no pool lanes are needed after fork().
      compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
      opt.schedule_search.kind = kind;
      opt.schedule_search.eval_lanes = 1;
      opt.compile_threads = 1;
      auto art = compiler::HtvmCompiler{opt}.Compile(net);
      if (!art.ok()) _exit(1);
      const bool tiled = art->kernels.size() == 1 &&
                         art->kernels[0].schedule.has_value() &&
                         art->kernels[0].schedule->solution.needs_tiling;
      _exit(tiled ? 0 : 2);
    }
    int status = 0;
    rusage usage{};
    ASSERT_EQ(wait4(pid, &status, 0, &usage), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "1: compile failed, 2: not one tiled digital kernel";
    // Sanitizer shadow memory and allocator quarantine inflate RSS, so the
    // bound only holds in plain builds.
    if (!kSanitized) {
      EXPECT_LT(usage.ru_maxrss, 64 * 1024) << "peak RSS in KiB";
    }
  }
}

// ---------------------------------------------------------------------------
// 1. Parsing + heuristic equivalence
// ---------------------------------------------------------------------------

TEST(ScheduleSearchKind, ParseRoundTrip) {
  for (ScheduleSearchKind kind :
       {ScheduleSearchKind::kHeuristic, ScheduleSearchKind::kGraphBeam}) {
    auto parsed = ParseScheduleSearchKind(ScheduleSearchKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  // Deleted kinds are unknown names, not aliases.
  for (const char* name : {"simulated-annealing", "beam", "evolutionary",
                           "graph-evolutionary"}) {
    auto bad = ParseScheduleSearchKind(name);
    ASSERT_FALSE(bad.ok()) << name;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(bad.status().ToString().find("heuristic|graph-beam"),
              std::string::npos)
        << bad.status().ToString();
  }
}

TEST(ScheduleSearch, HeuristicIsByteIdenticalToSolveTiling) {
  std::vector<std::pair<AccelLayerSpec, AccelTarget>> cases;
  for (const auto& p : models::Fig4Layers()) {
    cases.emplace_back(models::MakeConvSpec(p), AccelTarget::kDigital);
    cases.emplace_back(models::MakeConvSpec(p), AccelTarget::kAnalog);
  }
  cases.emplace_back(models::MakeDenseSpec(640, 256), AccelTarget::kDigital);

  for (i64 budget : {i64{4} * 1024, i64{32} * 1024, i64{256} * 1024}) {
    const TilerOptions tiler = WithBudget(budget);
    for (const auto& [spec, target] : cases) {
      auto legacy = BuildSchedule(spec, kCfg, target, tiler);
      auto searched = SearchSchedule(spec, kCfg, target, tiler,
                                     WithKind(ScheduleSearchKind::kHeuristic));
      ASSERT_EQ(legacy.ok(), searched.ok());
      if (!legacy.ok()) continue;  // infeasible for this budget: both agree
      EXPECT_TRUE(SameSolution(legacy->solution, searched->solution));
      EXPECT_EQ(legacy->solution.objective, searched->solution.objective);
      EXPECT_EQ(legacy->full_cycles, searched->full_cycles);
      EXPECT_EQ(legacy->steps.size(), searched->steps.size());
    }
  }
}

// ---------------------------------------------------------------------------
// 2. 50-seed property battery: feasibility, match-or-beat, bit-exact
//    execution, determinism.
// ---------------------------------------------------------------------------

TEST(ScheduleSearch, FiftySeedSearchProperty) {
  constexpr int kSeeds = 50;
  int tiled_cases = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(0xA110C47Eull + static_cast<u64>(seed));
    models::ConvLayerParams p;
    p.seed = static_cast<u64>(seed);
    p.depthwise = rng.UniformInt(0, 3) == 0;
    p.c = rng.UniformInt(1, 12) * 8;
    p.k = p.depthwise ? p.c : rng.UniformInt(1, 8) * 8;
    p.iy = p.ix = rng.UniformInt(8, 40);
    p.kh = p.kw = rng.UniformInt(0, 1) == 0 ? 3 : 5;
    p.stride = rng.UniformInt(0, 3) == 0 ? 2 : 1;
    const AccelLayerSpec spec = models::MakeConvSpec(p);
    // Budgets small enough that most cases genuinely tile.
    const i64 budget = rng.UniformInt(8, 64) * 1024;
    const TilerOptions tiler = WithBudget(budget);

    auto heuristic = SearchSchedule(spec, kCfg, AccelTarget::kDigital, tiler,
                                    WithKind(ScheduleSearchKind::kHeuristic));
    if (!heuristic.ok()) {
      EXPECT_EQ(heuristic.status().code(), StatusCode::kResourceExhausted);
      continue;
    }
    if (heuristic->solution.needs_tiling) ++tiled_cases;

    const Tensor data =
        Tensor::Random(Shape{1, spec.c, spec.iy, spec.ix}, DType::kInt8, rng);
    const Tensor weight = Tensor::Random(
        Shape{spec.k, p.depthwise ? 1 : spec.c, spec.kh, spec.kw},
        DType::kInt8, rng);
    const Tensor bias = Tensor::Random(Shape{spec.k}, DType::kInt32, rng);
    auto href = ExecuteTiled(*heuristic, std::vector<Tensor>{data}, &weight,
                             &bias);
    ASSERT_TRUE(href.ok()) << href.status().ToString();

    const ScheduleSearchOptions beam = WithKind(ScheduleSearchKind::kGraphBeam);
    auto sched = SearchSchedule(spec, kCfg, AccelTarget::kDigital, tiler, beam);
    ASSERT_TRUE(sched.ok())
        << "seed " << seed << ": " << sched.status().ToString();
    // L1-feasible: the deployed buffer set respects the Eq. 2 bound.
    if (sched->solution.needs_tiling) {
      EXPECT_LT(sched->solution.l1_bytes, EffectiveL1Budget(kCfg, tiler))
          << "seed " << seed;
    }
    // Match-or-beat: the heuristic pick is always a finalist, so a
    // searched schedule can never simulate slower.
    EXPECT_LE(sched->full_cycles, heuristic->full_cycles) << "seed " << seed;
    // Bit-exact execution: a different tile shape must not change a
    // single output byte.
    auto out = ExecuteTiled(*sched, std::vector<Tensor>{data}, &weight, &bias);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(out->SameAs(*href))
        << "seed " << seed
        << ": searched schedule diverged from heuristic outputs";
    // Deterministic: the same search problem picks the same schedule.
    auto again = SearchSchedule(spec, kCfg, AccelTarget::kDigital, tiler, beam);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(SameSolution(sched->solution, again->solution))
        << "seed " << seed;
  }
  // The sweep must actually exercise tiling, not just the untiled path.
  EXPECT_GE(tiled_cases, 20);
}

// ---------------------------------------------------------------------------
// 3. Cost model vs simulator rank correlation
// ---------------------------------------------------------------------------

double SpearmanRank(std::vector<double> a, std::vector<double> b) {
  const auto ranks = [](std::vector<double>& v) {
    std::vector<size_t> idx(v.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](size_t x, size_t y) { return v[x] < v[y]; });
    std::vector<double> r(v.size());
    // Average ranks over ties so equal costs do not fake correlation.
    for (size_t i = 0; i < idx.size();) {
      size_t j = i;
      while (j < idx.size() && v[idx[j]] == v[idx[i]]) ++j;
      const double avg = (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0;
      for (size_t k = i; k < j; ++k) r[idx[k]] = avg;
      i = j;
    }
    return r;
  };
  std::vector<double> ra = ranks(a), rb = ranks(b);
  const double n = static_cast<double>(ra.size());
  double ma = 0, mb = 0;
  for (size_t i = 0; i < ra.size(); ++i) { ma += ra[i]; mb += rb[i]; }
  ma /= n;
  mb /= n;
  double cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < ra.size(); ++i) {
    cov += (ra[i] - ma) * (rb[i] - mb);
    va += (ra[i] - ma) * (ra[i] - ma);
    vb += (rb[i] - mb) * (rb[i] - mb);
  }
  return cov / std::sqrt(va * vb);
}

TEST(ScheduleSearch, CostModelTracksSimulatorRanking) {
  models::ConvLayerParams p;
  p.c = 64;
  p.k = 32;
  p.iy = p.ix = 24;
  const AccelLayerSpec spec = models::MakeConvSpec(p);
  const TilerOptions tiler = WithBudget(24 * 1024);
  const auto candidates = Walk(spec, AccelTarget::kDigital, tiler);
  ASSERT_GT(candidates.size(), 50u);

  const hw::CostModel cost(kCfg);
  std::vector<double> est, sim;
  // Subsample a deterministic spread of the candidate space.
  const size_t stride = std::max<size_t>(1, candidates.size() / 120);
  for (size_t i = 0; i < candidates.size(); i += stride) {
    const TileSolution& cand = candidates[i];
    // The ground-truth simulator enumerates every tile; skip degenerate
    // shapes past its per-layer step limit (the search scores those
    // unschedulable and never deploys them).
    if (cand.TileCount() > 20000) continue;
    est.push_back(static_cast<double>(cost.EstimateAccelFullCycles(
        hw::AccelEngine::kDigital, ToGeom(spec, tiler, cand))));
    auto sched = BuildScheduleWithSolution(spec, kCfg, AccelTarget::kDigital,
                                           tiler, cand);
    ASSERT_TRUE(sched.ok()) << sched.status().ToString();
    sim.push_back(static_cast<double>(sched->full_cycles));
  }
  ASSERT_GT(est.size(), 30u);
  const double rho = SpearmanRank(est, sim);
  // The O(1) model ignores edge-tile clipping, so it is not a perfect
  // mirror — but it must rank candidates like the simulator does, or the
  // beam shortlist would graduate the wrong schedules.
  EXPECT_GT(rho, 0.9) << "Spearman rank correlation over " << est.size()
                      << " candidates";
}

// The reference shortlist: collect the whole walk, fully sort it by
// (estimate, walk index), then take the heuristic pick and the first
// kBeamWidth other shapes.
std::vector<TileSolution> FullSortShortlist(const AccelLayerSpec& spec,
                                            AccelTarget target,
                                            const TilerOptions& tiler,
                                            const TileSolution& hpick,
                                            bool* tied_at_head) {
  const std::vector<TileSolution> all = Walk(spec, target, tiler);
  const hw::CostModel cost(kCfg);
  const hw::AccelEngine engine = target == AccelTarget::kAnalog
                                     ? hw::AccelEngine::kAnalog
                                     : hw::AccelEngine::kDigital;
  std::vector<i64> est(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    est[i] = cost.EstimateAccelFullCycles(engine, ToGeom(spec, tiler, all[i]));
  }
  std::vector<size_t> order(all.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return est[a] != est[b] ? est[a] < est[b] : a < b;
  });
  std::vector<TileSolution> finalists{hpick};
  for (size_t r = 0;
       r < order.size() && finalists.size() <= size_t{kBeamWidth}; ++r) {
    TileSolution cand = all[order[r]];
    if (cand.c_t == hpick.c_t && cand.k_t == hpick.k_t &&
        cand.oy_t == hpick.oy_t && cand.ox_t == hpick.ox_t) {
      continue;
    }
    cand.objective = HeuristicObjective(spec, kCfg, target, tiler, cand);
    finalists.push_back(cand);
  }
  // Equal estimates among the kept head make the walk-index tie-break
  // decide which shapes survive, and in which order.
  *tied_at_head = false;
  for (size_t r = 1; r <= size_t{kBeamWidth} + 1 && r < order.size(); ++r) {
    *tied_at_head = *tied_at_head || est[order[r]] == est[order[r - 1]];
  }
  return finalists;
}

TEST(ScheduleSearch, StreamedShortlistEqualsFullSort) {
  int layers = 0;  // with at least one tiled target compared
  int tied = 0;
  for (int seed = 0; seed < 32; ++seed) {
    Rng rng(0x5B0A7115ull + static_cast<u64>(seed));
    AccelLayerSpec spec;
    // Tight enough that nearly every layer tiles.
    TilerOptions tiler = WithBudget(rng.UniformInt(2, 8) * 512);
    if (seed % 6 == 5) {
      spec = models::MakeDenseSpec(rng.UniformInt(4, 40) * 8,
                                   rng.UniformInt(1, 8) * 8);
      tiler.l1_budget_bytes = rng.UniformInt(4, 16) * 16;
    } else {
      models::ConvLayerParams p;
      p.depthwise = seed % 4 == 3;
      p.c = rng.UniformInt(1, 4) * 8;
      p.k = p.depthwise ? p.c : rng.UniformInt(1, 4) * 8;
      p.iy = p.ix = rng.UniformInt(8, 20);
      p.kh = p.kw = rng.UniformInt(0, 1) == 0 ? 1 : 3;
      p.stride = rng.UniformInt(0, 3) == 0 ? 2 : 1;
      spec = models::MakeConvSpec(p);
    }
    bool compared = false;
    for (AccelTarget target : {AccelTarget::kDigital, AccelTarget::kAnalog}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " " << AccelTargetName(target));
      auto hpick = SolveTiling(spec, kCfg, target, tiler);
      if (!hpick.ok() || !hpick->needs_tiling) continue;
      bool tie = false;
      const std::vector<TileSolution> want =
          FullSortShortlist(spec, target, tiler, *hpick, &tie);
      ScheduleSearchStats::Global().Reset();
      const std::vector<TileSolution> got =
          BeamShortlist(spec, kCfg, target, tiler, *hpick);
      EXPECT_EQ(got, want);
      EXPECT_EQ(ScheduleSearchStats::Global().cost_model_evals(),
                static_cast<i64>(Walk(spec, target, tiler).size()));
      compared = true;
      tied += tie;
    }
    layers += compared;
  }
  EXPECT_GE(layers, 20);
  EXPECT_GT(tied, 0) << "no layer exercised the walk-index tie-break";
}

// ---------------------------------------------------------------------------
// 4. Whole-network property: thread-count determinism
// ---------------------------------------------------------------------------

TEST(ScheduleSearch, CompileThreadCountDoesNotChangeSearchedArtifact) {
  const Graph net = models::BuildResNet8(models::PrecisionPolicy::kInt8);
  compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
  opt.schedule_search.kind = ScheduleSearchKind::kGraphBeam;
  // Tighten the budget so layers really tile and the beam really searches
  // (at the full 256 kB every ResNet8 layer fits untiled).
  opt.tiler.l1_budget_bytes = 8 * 1024;
  opt.compile_threads = 1;
  auto seq = compiler::HtvmCompiler{opt}.Compile(net);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  opt.compile_threads = 8;
  auto par = compiler::HtvmCompiler{opt}.Compile(net);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHabForDiff(*seq),
                      vm::SerializeHabForDiff(*par));
}

// ---------------------------------------------------------------------------
// 5. Typed no-fit error
// ---------------------------------------------------------------------------

TEST(ScheduleSearch, PathologicallySmallBudgetIsTypedResourceExhausted) {
  models::ConvLayerParams p;
  p.c = 64;
  p.k = 64;
  p.iy = p.ix = 32;
  const AccelLayerSpec spec = models::MakeConvSpec(p);
  // Even a 1x1x1x1 tile needs its kh x kw input halo plus weights, so
  // nothing fits 16 bytes.
  const TilerOptions tiler = WithBudget(16);
  for (ScheduleSearchKind kind :
       {ScheduleSearchKind::kHeuristic, ScheduleSearchKind::kGraphBeam}) {
    auto sched =
        SearchSchedule(spec, kCfg, AccelTarget::kDigital, tiler, WithKind(kind));
    ASSERT_FALSE(sched.ok()) << ScheduleSearchKindName(kind);
    EXPECT_EQ(sched.status().code(), StatusCode::kResourceExhausted);
    const std::string msg = sched.status().ToString();
    EXPECT_NE(msg.find("16 B"), std::string::npos) << msg;
    EXPECT_NE(msg.find("conv2d"), std::string::npos) << msg;
  }

  // A feasible-but-degenerate tile shape used to trip an HTVM_CHECK crash
  // in the schedule generator; now it is the same typed error, naming the
  // step count and the limit.
  auto degenerate = BuildScheduleWithSolution(
      spec, kCfg, AccelTarget::kDigital, WithBudget(64 * 1024), [] {
        TileSolution s;
        s.c_t = s.k_t = s.oy_t = s.ox_t = 1;
        s.iy_t = s.ix_t = 3;
        s.n_c = 64;
        s.n_k = 64;
        s.n_y = s.n_x = 32;
        s.needs_tiling = true;
        s.psum = true;
        return s;
      }());
  ASSERT_FALSE(degenerate.ok());
  EXPECT_EQ(degenerate.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(degenerate.status().ToString().find("limit"), std::string::npos);

  // End-to-end a pathological budget is not an error at all: the
  // dispatcher probes feasibility, logs the typed reason and falls back to
  // CPU for every layer instead of crashing mid-compile.
  compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
  opt.tiler.l1_budget_bytes = 16;
  auto art = compiler::HtvmCompiler{opt}.Compile(
      models::BuildResNet8(models::PrecisionPolicy::kInt8));
  ASSERT_TRUE(art.ok()) << art.status().ToString();
  // The 3x3 convs cannot tile into 16 bytes (their input halo alone is
  // bigger) and must land on the CPU with the typed reason in the log;
  // 1x1-tile-able layers (add, pointwise) may still go digital.
  int cpu_kernels = 0;
  for (const auto& k : art->kernels) cpu_kernels += k.target == "cpu";
  EXPECT_GT(cpu_kernels, 0);
  bool saw_infeasible_reason = false;
  for (const auto& d : art->dispatch_log) {
    saw_infeasible_reason =
        saw_infeasible_reason ||
        d.reason.find("tiling infeasible") != std::string::npos;
  }
  EXPECT_TRUE(saw_infeasible_reason);
}

}  // namespace
}  // namespace htvm::dory
