// Cost model of TVM-generated fused kernels on DIANA's RISC-V host
// (RV32IMCFXpulpV2, -O3, XpulpV2-aware GCC — the paper's CPU baseline).
//
// The model charges cycles per MAC for the accumulating ops and cycles per
// element for data-parallel epilogues; elementwise ops *fused into* an
// accumulating kernel cost the cheaper `requant_cycles_per_elem` (TVM's
// operator fusion is what makes the baseline competitive at all).
#pragma once

#include "hw/config.hpp"
#include "ir/graph.hpp"

namespace htvm::hw {

// Workload statistics of one op node, derived from its shapes.
struct OpWork {
  i64 macs = 0;        // multiply-accumulates (conv/dense)
  i64 out_elems = 0;   // elements produced
  bool is_dwconv = false;
};

OpWork ComputeOpWork(const Graph& graph, const Node& node);

// Cycles for `node` executed standalone on the CPU.
i64 CpuOpCycles(const CpuConfig& cfg, const Graph& graph, const Node& node);

// Cycles for `node` when fused as an epilogue into a preceding accumulating
// kernel (elementwise/requant chains).
i64 CpuFusedEpilogueCycles(const CpuConfig& cfg, const Node& node);

}  // namespace htvm::hw
