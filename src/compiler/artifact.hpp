// The compiled artifact: what `tvmc compile` + DORY codegen would hand to
// the target — a linear kernel sequence over a lowered graph, an
// ahead-of-time L2 memory schedule, and a binary-size report.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compiler/dispatch.hpp"
#include "dory/graph_plan.hpp"
#include "dory/schedule.hpp"
#include "hw/perf.hpp"
#include "ir/graph.hpp"
#include "tvmgen/binary_size.hpp"

namespace htvm::compiler {

struct CompiledKernel {
  std::string name;    // e.g. "diana.conv2d#3"
  std::string target;  // "cpu" | "digital" | "analog"
  NodeId node = kInvalidNode;  // composite node in kernel_graph
  hw::KernelPerf perf;
  i64 code_bytes = 0;
  i64 weight_bytes = 0;
  // Present for accelerator kernels: the DORY tile schedule.
  std::optional<dory::AccelSchedule> schedule;
};

// One L2 buffer assignment from the ahead-of-time memory schedule.
struct BufferAssignment {
  NodeId value = kInvalidNode;  // producing node (input or composite)
  i64 offset = 0;
  i64 size = 0;
  i64 def_time = 0;       // producing node id
  i64 last_use_time = 0;  // last consuming node id (or end for outputs)
};

struct MemoryPlan {
  std::vector<BufferAssignment> buffers;
  i64 arena_bytes = 0;       // peak of the activation arena
  i64 total_l2_bytes = 0;    // arena + binary image resident in L2
  bool fits = true;          // total_l2_bytes <= L2 capacity
  bool reuse = true;         // liveness-based reuse was enabled
};

// Wall-clock timing and top-level node-count delta of one compile pass, in
// pipeline order (recorded by the PassManager).
struct PassStat {
  std::string name;
  i64 wall_ns = 0;       // steady-clock duration of the pass
  i64 nodes_before = 0;  // state.graph size entering the pass
  i64 nodes_after = 0;   // ... and leaving it
  // The pass ran but reported no graph change (no rewrites, node count
  // unchanged), so post-pass re-validation and IR dumps were skipped;
  // rendered as "skipped" by --print-pass-times.
  bool skipped = false;
};
using PassTimeline = std::vector<PassStat>;

// Total wall-clock nanoseconds across the timeline — the cost a cache hit
// on this artifact avoids (reported by the artifact cache as saved time).
i64 PassTimelineTotalNs(const PassTimeline& timeline);

struct Artifact {
  // Inputs + constants + composites only. `kernels` holds one kernel per
  // composite, in node order (checked for loaded HABs by ValidateArtifact).
  Graph kernel_graph;
  std::vector<CompiledKernel> kernels;  // execution order
  DispatchLog dispatch_log;  // per-match accept/reject decisions
  PassTimeline pass_timeline;  // per-pass compile-time instrumentation
  MemoryPlan memory_plan;
  tvmgen::BinarySizeReport size;
  hw::DianaConfig hw_config;
  // Name of the SocDescription this artifact was compiled for. HABs
  // without a kSoc section (default-SoC artifacts and everything
  // pre-dating SoC families) load as "diana".
  std::string soc_name = "diana";
  // The graph-level fusion/dispatch plan the compile deployed
  // (dory/graph_plan.hpp). Empty on the default heuristic path — and an
  // empty plan serializes to nothing, keeping heuristic artifacts
  // byte-identical to the pre-plan goldens. A non-empty plan is only valid
  // on its soc_name (enforced when loading a HAB).
  dory::GraphPlan plan;

  hw::RunProfile Profile() const;
  // End-to-end latency: every kernel at its full (call-to-return) cost.
  i64 TotalFullCycles() const;
  // "Peak" deployment latency as reported in Table I: accelerator kernels
  // at trigger-to-done cost, CPU kernels unchanged.
  i64 TotalPeakCycles() const;
  double LatencyMs() const { return hw_config.CyclesToMs(TotalFullCycles()); }
  double PeakLatencyMs() const {
    return hw_config.CyclesToMs(TotalPeakCycles());
  }
};

}  // namespace htvm::compiler
