// Schedule search over the DORY tile-candidate space
// (docs/schedule_search.md; the TVM autotuning direction of PAPERS.md).
//
// Both kinds walk the same stream of feasible tile shapes
// (dory::ForEachTileCandidate); the kind decides which one a layer deploys:
//
//   heuristic   BuildSchedule: the DORY Eq. 1-5 pick of SolveTiling (the
//               default; golden artifacts are pinned on this path, and it
//               performs zero cost evaluations);
//   graph-beam  score every candidate with the O(1) hw::CostModel, keep
//               the best kBeamWidth, evaluate the shortlist (plus the
//               heuristic pick) on the ground-truth DIANA simulator and
//               deploy the fastest — and, one level up, beam-search the
//               fusion/dispatch plan (compiler/plan_search.hpp).
//
// graph-beam always simulator-evaluates the heuristic pick too, so a
// searched schedule is never slower than the heuristic one on the
// simulated latency the benches report (`bench_autotune --check`).
// Simulator evaluations fan out on SharedCompilePool; the search is
// deterministic in (layer, options), independent of thread count.
#pragma once

#include <atomic>
#include <string_view>
#include <vector>

#include "dory/schedule.hpp"

namespace htvm::dory {

enum class ScheduleSearchKind : u8 {
  kHeuristic = 0,
  // Per-layer tile beam plus the graph-level search over depth-first
  // fusion pairings and per-composite dispatch (docs/schedule_search.md
  // "Graph-level search").
  kGraphBeam = 1,
};

// Width of both beams: cost-model-ranked tile candidates graduated to the
// simulator per layer, and partial decision vectors kept per unit by the
// plan search.
inline constexpr int kBeamWidth = 8;

const char* ScheduleSearchKindName(ScheduleSearchKind kind);
// Parses "heuristic" | "graph-beam"; InvalidArgument (listing the valid
// names) otherwise.
Result<ScheduleSearchKind> ParseScheduleSearchKind(std::string_view name);

struct ScheduleSearchOptions {
  ScheduleSearchKind kind = ScheduleSearchKind::kHeuristic;
  // Concurrent simulator evaluations per layer (nested ParallelFor on
  // SharedCompilePool; 1 = inline).
  int eval_lanes = 4;
};

// Process-wide search-effort counters (reset by tests/benches; reported by
// `htvmc --schedule-search ...`). A compile served from the artifact cache
// performs zero evaluations — the CI smoke greps for exactly that.
class ScheduleSearchStats {
 public:
  static ScheduleSearchStats& Global();

  void RecordCostEvals(i64 n) { cost_model_evals_ += n; }
  void RecordSimEvals(i64 n) { simulator_evals_ += n; }
  void RecordSearchedLayer() { ++layers_searched_; }
  void Reset();

  i64 cost_model_evals() const { return cost_model_evals_.load(); }
  i64 simulator_evals() const { return simulator_evals_.load(); }
  i64 layers_searched() const { return layers_searched_.load(); }
  i64 TotalEvals() const { return cost_model_evals() + simulator_evals(); }

 private:
  std::atomic<i64> cost_model_evals_{0};
  std::atomic<i64> simulator_evals_{0};
  std::atomic<i64> layers_searched_{0};
};

// The search-aware BuildSchedule. `heuristic` is exactly BuildSchedule.
// `graph-beam` starts from SolveTiling's pick: an untiled layer and a
// layer no shape fits return as the heuristic would (zero evaluations);
// otherwise the BeamShortlist is simulated and the fastest finalist
// deployed.
Result<AccelSchedule> SearchSchedule(const AccelLayerSpec& spec,
                                     const hw::DianaConfig& cfg,
                                     AccelTarget target,
                                     const TilerOptions& tiler,
                                     const ScheduleSearchOptions& search);

// The graph-beam finalists of a tiled layer, in simulator-evaluation
// order: `heuristic_pick` (SolveTiling's tiled answer) first, then the
// kBeamWidth other feasible shapes with the lowest cost-model estimate
// (ties in walk order), each with its Eq. 1 `objective` set. Streams the
// walk through a bounded list and records one cost-model evaluation per
// candidate. Exposed for tests.
std::vector<TileSolution> BeamShortlist(const AccelLayerSpec& spec,
                                        const hw::DianaConfig& cfg,
                                        AccelTarget target,
                                        const TilerOptions& tiler,
                                        const TileSolution& heuristic_pick);

}  // namespace htvm::dory
