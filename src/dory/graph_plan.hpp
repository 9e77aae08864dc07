// GraphPlan: the graph-level schedule-search decision vector
// (docs/schedule_search.md "Graph-level search"; the MATCH/MATCHA direction
// of PAPERS.md).
//
// PR 8's autotuner searches tile shapes *within* a fixed partitioning; the
// graph-level search additionally decides, per accelerator composite,
//
//   - dispatch: which engine the composite deploys on (cpu / digital /
//     analog, gated by the SocDescription's capabilities), and
//   - fusion: whether the composite merges depth-first with its successor
//     into one L1-resident fused kernel (dory/depth_first.hpp), so the
//     intermediate activation map never round-trips through L2.
//
// A GraphPlan is one decision per composite, in kernel (node-id) order. It
// is recorded in the compiled artifact — and in its HAB serialization —
// so `htvm-run`, the artifact cache, and a warm serve
// fleet replay the searched mapping instead of re-deriving it. The plan's
// text form doubles as the golden format pinning the default heuristic
// partitioning (tests/golden/plan/).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace htvm::dory {

// One composite's searched mapping. `pattern` is the composite kind the
// partitioner produced (e.g. "diana.conv2d"); `target` is the engine the
// plan deploys it on; `fuse_with_next` merges this composite and the next
// decision's composite into one depth-first fused kernel (the successor's
// own decision is then absorbed: its target must equal this one's).
struct PlanDecision {
  std::string pattern;
  std::string target;  // "cpu" | "digital" | "analog"
  bool fuse_with_next = false;

  bool operator==(const PlanDecision& o) const {
    return pattern == o.pattern && target == o.target &&
           fuse_with_next == o.fuse_with_next;
  }
};

struct GraphPlan {
  // SoC the plan was searched for; a plan is only valid on that SoC
  // (capability gates differ), enforced when loading a HAB.
  std::string soc_name = "diana";
  std::vector<PlanDecision> decisions;

  bool empty() const { return decisions.empty(); }
  bool operator==(const GraphPlan& o) const {
    return soc_name == o.soc_name && decisions == o.decisions;
  }

  // Line-oriented text form (also the HAB kPlan section payload and the
  // tests/golden/plan/ golden format):
  //
  //   graph-plan v1 soc=<name> units=<N>
  //   unit <pattern> <target> fuse=<0|1>     (N lines, kernel order)
  std::string Serialize() const;
  // Typed-error parser: InvalidArgument on any malformed header, count
  // mismatch, unknown target, or trailing garbage — never crashes on
  // corrupted HAB plan sections (fuzz-tested).
  static Result<GraphPlan> Deserialize(std::string_view text);

  i64 FusedPairs() const;
  i64 CpuDecisions() const;
};

}  // namespace htvm::dory
