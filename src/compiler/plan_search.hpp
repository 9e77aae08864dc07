// Graph-level schedule search (docs/schedule_search.md "Graph-level
// search"): lifts PR 8's per-layer tile tuning to the two mapping axes the
// paper argues dominate heterogeneous TinyML latency — which engine each
// partitioned composite runs on, and which adjacent digital conv pairs
// merge into one depth-first (L1-resident) fused kernel.
//
// The search runs inside PartitionGraphPass, after the priority-rule
// partitioner produced the heuristic mapping:
//
//   partitioned graph
//     -> ExtractPlanUnits     one PlanUnit per composite, with exact
//                             per-decision costs pre-simulated (heuristic
//                             tile schedule / CPU cost model / depth-first
//                             fused schedule)
//     -> SearchGraphPlan      beam search over the decision vector,
//                             screened by the hw::CostModel composite-
//                             chain cost (unit cycles + inter-composite
//                             L2 transfer terms), finalists graduated to
//                             the exact chain sum — the heuristic plan
//                             always graduates first, so the winner
//                             matches-or-beats it
//     -> ApplyGraphPlan       graph surgery: retarget flipped composites,
//                             merge fused pairs into "diana.fused2"
//                             composites
//
// Decision gating keeps every plan bit-exact and capability-legal:
//   - analog composites are pinned (InsertAnalogInputClamps rewrites their
//     bodies, so moving a layer off analog would change numerics);
//   - diana.mhsa is pinned to its dispatch decision;
//   - digital composites may flip to the CPU (the body replays on the
//     interpreter either way) or fuse with a digital conv successor;
//   - a SoC without an engine never sees a decision for it — the
//     partitioner cannot produce such a unit in the first place, and
//     SearchGraphPlan only ever narrows targets toward the CPU.
#pragma once

#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "dory/depth_first.hpp"
#include "dory/graph_plan.hpp"

namespace htvm::compiler {

// One composite of the partitioned graph, with every cost the plan search
// can charge for it pre-computed exactly (so candidate scoring is O(units)
// arithmetic and graduation needs no recompilation).
struct PlanUnit {
  NodeId node = kInvalidNode;
  std::string pattern;  // composite kind, e.g. "diana.conv2d"
  std::string target;   // heuristic dispatch decision
  // Search freedom: digital non-MHSA units may flip to the CPU; a unit may
  // fuse with its immediate successor when both are digital conv-likes,
  // the successor is this unit's only consumer, and the depth-first tiler
  // found an L1-feasible fused schedule.
  bool searchable_cpu = false;
  bool fusable_with_next = false;
  // Exact per-decision full cycles. `keep_cycles` is the unit at its
  // heuristic decision (accel simulator schedule, CPU cost model, or MHSA
  // perf — whatever the heuristic path deploys); `cpu_cycles` the CPU
  // flip; `fused_cycles` this unit + successor as one depth-first kernel.
  i64 keep_cycles = 0;
  i64 cpu_cycles = 0;
  i64 fused_cycles = 0;
  // Output bytes handed to the next kernel through L2 (the boundary the
  // fused kernel keeps in L1).
  i64 boundary_bytes = 0;
};

// One PlanUnit per composite node of the partitioned graph, in node-id
// (kernel) order.
Result<std::vector<PlanUnit>> ExtractPlanUnits(const Graph& partitioned,
                                               const CompileOptions& options);

// The identity plan: every unit keeps its heuristic dispatch, no fusion.
dory::GraphPlan HeuristicPlanForUnits(const std::vector<PlanUnit>& units,
                                      const std::string& soc_name);

// Beam search (kGraphBeam) over the decision vector. Deterministic in
// (units, options) — independent of compile-thread count. Returns the
// graduated winner; never worse than the heuristic plan on the exact chain
// cost.
Result<dory::GraphPlan> SearchGraphPlan(const std::vector<PlanUnit>& units,
                                        const CompileOptions& options);

// Exact end-to-end full cycles of `plan` over `units` (the graduation
// metric; also the bench-side delta report).
i64 PlanChainCycles(const std::vector<PlanUnit>& units,
                    const dory::GraphPlan& plan);

// True when `plan` is a legal decision vector for `units` (size, patterns,
// per-unit target freedom, fusion legality) — ApplyGraphPlan's guard
// against a plan that does not belong to these units.
bool PlanMatchesUnits(const dory::GraphPlan& plan,
                      const std::vector<PlanUnit>& units);

// Rewrites the partitioned graph per the plan: flips retargeted composites
// and merges each fused pair into one "diana.fused2" composite whose body
// chains both original bodies.
Result<Graph> ApplyGraphPlan(const Graph& partitioned,
                             const std::vector<PlanUnit>& units,
                             const dory::GraphPlan& plan);

// The default-partitioning plan of `network` on `options` (front-end
// passes + priority-rule partitioner, no search) — what the heuristic path
// deploys, pinned under tests/golden/plan/.
Result<dory::GraphPlan> HeuristicGraphPlan(const Graph& network,
                                           const CompileOptions& options);

}  // namespace htvm::compiler
