#include "dory/schedule_search.hpp"

#include <algorithm>
#include <limits>
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

}  // namespace

std::vector<TileSolution> BeamShortlist(const AccelLayerSpec& spec,
                                        const hw::DianaConfig& cfg,
                                        AccelTarget target,
                                        const TilerOptions& tiler,
                                        const TileSolution& heuristic_pick) {
  const hw::CostModel model(cfg);
  const hw::AccelEngine engine = target == AccelTarget::kAnalog
                                     ? hw::AccelEngine::kAnalog
                                     : hw::AccelEngine::kDigital;
  // The best kBeamWidth + 1 candidates by (estimate, enumeration index),
  // ascending: the heuristic pick may be one of them, and is skipped below.
  // Shapes are unique per walk, so this is the head of the full sort.
  struct Ranked {
    i64 est;
    TileSolution cand;
  };
  constexpr size_t kKeep = size_t{kBeamWidth} + 1;
  std::vector<Ranked> best;
  best.reserve(kKeep + 1);
  i64 evals = 0;
  ForEachTileCandidate(
      spec, cfg, target, tiler, [&](const TileSolution& cand) {
        ++evals;
        const i64 est =
            model.EstimateAccelFullCycles(engine, ToGeom(spec, tiler, cand));
        // A later candidate loses ties, so it goes after every equal estimate.
        if (best.size() == kKeep && est >= best.back().est) return true;
        const auto at = std::upper_bound(
            best.begin(), best.end(), est,
            [](i64 e, const Ranked& r) { return e < r.est; });
        best.insert(at, Ranked{est, cand});
        if (best.size() > kKeep) best.pop_back();
        return true;
      });
  ScheduleSearchStats::Global().RecordCostEvals(evals);

  // The heuristic pick leads the shortlist: on a simulator tie it wins,
  // so a searched schedule is never slower than the heuristic one.
  std::vector<TileSolution> finalists{heuristic_pick};
  for (const Ranked& r : best) {
    if (finalists.size() == kKeep) break;
    if (SameShape(r.cand, heuristic_pick)) continue;
    TileSolution cand = r.cand;
    cand.objective = HeuristicObjective(spec, cfg, target, tiler, cand);
    finalists.push_back(cand);
  }
  return finalists;
}

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
  layers_searched_ = 0;
}

Result<AccelSchedule> SearchSchedule(const AccelLayerSpec& spec,
                                     const hw::DianaConfig& cfg,
                                     AccelTarget target,
                                     const TilerOptions& tiler,
                                     const ScheduleSearchOptions& search) {
  if (search.kind == ScheduleSearchKind::kHeuristic) {
    return BuildSchedule(spec, cfg, target, tiler);
  }
  // The heuristic pick: untiled when the whole layer fits (one pass beats
  // any tiled schedule, so the beam is skipped: zero evals), or the typed
  // no-fit error when nothing does.
  HTVM_ASSIGN_OR_RETURN(hpick, SolveTiling(spec, cfg, target, tiler));
  if (!hpick.needs_tiling) {
    return BuildScheduleWithSolution(spec, cfg, target, tiler, hpick);
  }
  HTVM_ASSIGN_OR_RETURN(
      sol, EvaluateFinalists(spec, cfg, target, tiler, search,
                             BeamShortlist(spec, cfg, target, tiler, hpick)));
  ScheduleSearchStats::Global().RecordSearchedLayer();
  return BuildScheduleWithSolution(spec, cfg, target, tiler, sol);
}

}  // namespace htvm::dory
