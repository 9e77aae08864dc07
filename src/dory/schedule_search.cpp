#include "dory/schedule_search.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "hw/cost_model.hpp"
#include "support/string_utils.hpp"
#include "support/thread_pool.hpp"

namespace htvm::dory {
namespace {

hw::TiledOp ToTiledOp(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d:
      return hw::TiledOp::kConv2d;
    case LayerKind::kDwConv2d:
      return hw::TiledOp::kDwConv2d;
    case LayerKind::kDense:
      return hw::TiledOp::kDense;
    case LayerKind::kAdd:
      return hw::TiledOp::kAdd;
    case LayerKind::kMatmul:
      return hw::TiledOp::kMatmul;
  }
  return hw::TiledOp::kConv2d;
}

hw::TiledLayerGeom ToGeom(const AccelLayerSpec& spec, const TilerOptions& tiler,
                          const TileSolution& cand) {
  hw::TiledLayerGeom g;
  g.op = ToTiledOp(spec.kind);
  g.c = spec.c;
  g.iy = spec.iy;
  g.ix = spec.ix;
  g.k = spec.k;
  g.oy = spec.oy;
  g.ox = spec.ox;
  g.kh = spec.kh;
  g.kw = spec.kw;
  g.c_t = cand.c_t;
  g.k_t = cand.k_t;
  g.oy_t = cand.oy_t;
  g.ox_t = cand.ox_t;
  g.iy_t = cand.iy_t;
  g.ix_t = cand.ix_t;
  g.double_buffer = tiler.double_buffer;
  return g;
}

// Ground truth: the full per-tile simulator schedule's latency.
Result<i64> SimulateFullCycles(const AccelLayerSpec& spec,
                               const hw::DianaConfig& cfg, AccelTarget target,
                               const TilerOptions& tiler,
                               const TileSolution& cand) {
  HTVM_ASSIGN_OR_RETURN(sched,
                        BuildScheduleWithSolution(spec, cfg, target, tiler,
                                                  cand));
  return sched.full_cycles;
}

// Simulator-evaluates every finalist (fanned out on SharedCompilePool) and
// returns the fastest; ties keep the earliest entry, so callers list the
// heuristic pick first to guarantee searched <= heuristic.
Result<TileSolution> EvaluateFinalists(const AccelLayerSpec& spec,
                                       const hw::DianaConfig& cfg,
                                       AccelTarget target,
                                       const TilerOptions& tiler,
                                       const ScheduleSearchOptions& search,
                                       const std::vector<TileSolution>& fin) {
  const i64 n = static_cast<i64>(fin.size());
  // A finalist whose schedule exceeds the per-layer step limit (a feasible
  // but absurdly small tile shape) is scored unschedulable rather than
  // failing the search: the heuristic pick is also a finalist, so any
  // layer the plain tiler can deploy, the search can too.
  constexpr i64 kUnschedulable = std::numeric_limits<i64>::max();
  std::vector<i64> cycles(fin.size(), 0);
  const auto eval_one = [&](i64 i) -> Status {
    auto full = SimulateFullCycles(spec, cfg, target, tiler,
                                   fin[static_cast<size_t>(i)]);
    if (!full.ok()) {
      if (full.status().code() == StatusCode::kResourceExhausted) {
        cycles[static_cast<size_t>(i)] = kUnschedulable;
        return Status::Ok();
      }
      return full.status();
    }
    cycles[static_cast<size_t>(i)] = *full;
    return Status::Ok();
  };
  const i64 lanes = std::min<i64>(search.eval_lanes, n);
  if (lanes <= 1 || n <= 1) {
    for (i64 i = 0; i < n; ++i) {
      HTVM_RETURN_IF_ERROR(eval_one(i));
    }
  } else {
    HTVM_RETURN_IF_ERROR(ParallelFor(SharedCompilePool(), n, lanes, eval_one));
  }
  ScheduleSearchStats::Global().RecordSimEvals(n);

  size_t best = 0;
  for (size_t i = 1; i < fin.size(); ++i) {
    if (cycles[i] < cycles[best]) best = i;
  }
  if (cycles[best] == kUnschedulable) {
    // Even the heuristic pick cannot be scheduled: surface its typed error.
    return SimulateFullCycles(spec, cfg, target, tiler, fin[0]).status();
  }
  return fin[best];
}

bool SameShape(const TileSolution& a, const TileSolution& b) {
  return a.c_t == b.c_t && a.k_t == b.k_t && a.oy_t == b.oy_t &&
         a.ox_t == b.ox_t;
}

// Beam selection: rank the whole feasible set with the O(1) analytic
// model, graduate the best kBeamWidth (behind the heuristic pick) to the
// simulator, deploy the fastest.
Result<TileSolution> BeamSelect(const AccelLayerSpec& spec,
                                const hw::DianaConfig& cfg, AccelTarget target,
                                const TilerOptions& tiler,
                                const ScheduleSearchOptions& search,
                                const std::vector<TileSolution>& candidates) {
  const hw::CostModel model(cfg);
  const hw::AccelEngine engine = target == AccelTarget::kAnalog
                                     ? hw::AccelEngine::kAnalog
                                     : hw::AccelEngine::kDigital;
  std::vector<i64> est(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    est[i] = model.EstimateAccelFullCycles(engine,
                                           ToGeom(spec, tiler, candidates[i]));
  }
  ScheduleSearchStats::Global().RecordCostEvals(
      static_cast<i64>(candidates.size()));

  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return est[a] != est[b] ? est[a] < est[b] : a < b;
  });

  // The heuristic pick leads the shortlist: on a simulator tie it wins,
  // so a searched schedule is never slower than the heuristic one.
  TileSolution hpick = PickHeuristicSolution(spec, cfg, target, tiler,
                                             candidates);
  std::vector<TileSolution> finalists{hpick};
  for (size_t r = 0;
       r < order.size() && finalists.size() <= size_t{kBeamWidth}; ++r) {
    TileSolution cand = candidates[order[r]];
    if (SameShape(cand, hpick)) continue;
    cand.objective = HeuristicObjective(spec, cfg, target, tiler, cand);
    finalists.push_back(cand);
  }
  return EvaluateFinalists(spec, cfg, target, tiler, search, finalists);
}

}  // namespace

const char* ScheduleSearchKindName(ScheduleSearchKind kind) {
  switch (kind) {
    case ScheduleSearchKind::kHeuristic:
      return "heuristic";
    case ScheduleSearchKind::kGraphBeam:
      return "graph-beam";
  }
  return "heuristic";
}

Result<ScheduleSearchKind> ParseScheduleSearchKind(std::string_view name) {
  if (name == "heuristic") return ScheduleSearchKind::kHeuristic;
  if (name == "graph-beam") return ScheduleSearchKind::kGraphBeam;
  return Status::InvalidArgument(
      StrFormat("unknown schedule-search kind '%s' (expected "
                "heuristic|graph-beam)",
                std::string(name).c_str()));
}

ScheduleSearchStats& ScheduleSearchStats::Global() {
  static ScheduleSearchStats* stats = new ScheduleSearchStats();
  return *stats;
}

void ScheduleSearchStats::Reset() {
  cost_model_evals_ = 0;
  simulator_evals_ = 0;
  memo_hits_ = 0;
  layers_searched_ = 0;
}

u64 ScheduleSearchProblemFingerprint(const AccelLayerSpec& spec,
                                     AccelTarget target,
                                     const TilerOptions& tiler,
                                     const ScheduleSearchOptions& search) {
  // FNV-1a 64 over every field that changes the candidate set or the
  // scoring.
  u64 h = 14695981039346656037ull;
  const auto fold = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto fold_d = [&fold](double d) {
    u64 bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    fold(bits);
  };
  fold(static_cast<u64>(spec.kind));
  fold(static_cast<u64>(spec.c));
  fold(static_cast<u64>(spec.iy));
  fold(static_cast<u64>(spec.ix));
  fold(static_cast<u64>(spec.k));
  fold(static_cast<u64>(spec.oy));
  fold(static_cast<u64>(spec.ox));
  fold(static_cast<u64>(spec.kh));
  fold(static_cast<u64>(spec.kw));
  fold(static_cast<u64>(spec.sy));
  fold(static_cast<u64>(spec.sx));
  fold(static_cast<u64>(spec.pad_t));
  fold(static_cast<u64>(spec.pad_l));
  fold(static_cast<u64>(spec.pad_b));
  fold(static_cast<u64>(spec.pad_r));
  fold(static_cast<u64>(target));
  fold_d(tiler.alpha);
  fold_d(tiler.beta_pe);
  fold_d(tiler.beta_dma);
  fold(tiler.enable_pe_heuristics ? 1 : 0);
  fold(tiler.enable_dma_heuristic ? 1 : 0);
  fold(tiler.double_buffer ? 1 : 0);
  fold(static_cast<u64>(tiler.l1_budget_bytes));
  fold(static_cast<u64>(search.kind));
  return h;
}

Result<AccelSchedule> SearchSchedule(const AccelLayerSpec& spec,
                                     const hw::DianaConfig& cfg,
                                     AccelTarget target,
                                     const TilerOptions& tiler,
                                     const ScheduleSearchOptions& search) {
  // Untiled fast path: one pass over the whole layer beats any tiled
  // schedule, so both kinds take it unconditionally (zero evals).
  if (auto untiled = UntiledSolution(spec, cfg, target, tiler)) {
    return BuildScheduleWithSolution(spec, cfg, target, tiler, *untiled);
  }
  const std::vector<TileSolution> candidates =
      EnumerateTileCandidates(spec, cfg, target, tiler);
  if (candidates.empty()) {
    return InfeasibleTilingStatus(spec, cfg, target, tiler);
  }
  if (search.kind == ScheduleSearchKind::kHeuristic) {
    return BuildScheduleWithSolution(
        spec, cfg, target, tiler,
        PickHeuristicSolution(spec, cfg, target, tiler, candidates));
  }
  HTVM_ASSIGN_OR_RETURN(
      sol, BeamSelect(spec, cfg, target, tiler, search, candidates));
  ScheduleSearchStats::Global().RecordSearchedLayer();
  return BuildScheduleWithSolution(spec, cfg, target, tiler, sol);
}

}  // namespace htvm::dory
