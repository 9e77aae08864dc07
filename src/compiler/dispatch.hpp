// Accelerator-aware dispatching (Sec. III-A): pattern rules whose
// predicates read the matched layer (dory::AnalyzeAnchor on the outer
// graph, the reader dory::AnalyzeCompositeBody uses after partitioning),
// apply the DIANA capability checks plus a tiling feasibility probe
// (dory::CheckTilingFits), and annotate accepted composites with their
// target.
//
// Routing follows the paper: the weights' bit-width selects the
// accelerator (int8 -> digital, ternary -> analog); patterns failing every
// rule stay on the native TVM CPU path.
#pragma once

#include "dory/tiler.hpp"
#include "hw/soc.hpp"
#include "pattern/rewriter.hpp"

namespace htvm::compiler {

struct DispatchOptions {
  bool enable_digital = true;
  bool enable_analog = true;
  // Third BYOC target: a hand-tuned CPU kernel library (PULP-NN /
  // CMSIS-NN class). Lower priority than both accelerators — it only takes
  // chains neither accelerator accepted (the Sec. V extension hook:
  // "HTVM can easily be expanded with other BYOC codegens").
  bool enable_tuned_cpu_library = false;
};

// One dispatch decision, for the compile-time report ("why did my layer
// land on this engine?").
struct DispatchDecision {
  NodeId root = kInvalidNode;   // pattern root in the pre-partition graph
  std::string pattern;          // rule name, e.g. "diana.conv2d"
  std::string layer;            // layer geometry summary
  std::string target;           // accepted target, or "cpu" on rejection
  std::string reason;           // acceptance/rejection rationale
};
using DispatchLog = std::vector<DispatchDecision>;

// The DIANA rule set for `soc`: diana.conv2d / diana.dense / diana.add
// (plus the optional tuned CPU library). A SoC without an accelerator never
// receives rules for it, regardless of `options` (an absent engine beats an
// enabled flag). Transformer workloads get whole-MHSA-block offload
// (diana.mhsa) and constant-weight matmul chains (diana.matmul) on the
// digital array only on full-featured SoCs (digital + analog + XpulpV2
// host); reduced variants run attention per-op on the CPU. When `log` is
// non-null every structural match's accept/reject decision is appended to
// it.
std::vector<PatternRule> MakeDianaDispatchRules(
    const DispatchOptions& options, const hw::SocDescription& soc,
    const dory::TilerOptions& tiler_options, DispatchLog* log = nullptr);

}  // namespace htvm::compiler
