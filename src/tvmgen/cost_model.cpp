#include "tvmgen/cost_model.hpp"

#include "hw/cost_model.hpp"
#include "hw/cpu.hpp"

namespace htvm::tvmgen {
namespace {

// Anchor = the op that dominates the kernel's cost; everything downstream
// of it in the fused body is charged as a fused epilogue.
bool IsAnchorOp(const Node& n) {
  for (OpId id : {OpId::kConv2d, OpId::kDense, OpId::kMatmul, OpId::kSoftmax,
                  OpId::kLayerNorm, OpId::kGelu, OpId::kAvgPool2d,
                  OpId::kMaxPool2d, OpId::kGlobalAvgPool2d, OpId::kAdd}) {
    if (n.Is(id)) return true;
  }
  return false;
}

}  // namespace

i64 CpuCompositeCycles(const hw::CpuConfig& cfg, const Node& composite) {
  HTVM_CHECK(composite.kind == NodeKind::kComposite);
  const Graph& body = *composite.body;
  const bool tuned = composite.attrs.GetString("kernel_lib") == "tuned";
  i64 cycles = cfg.kernel_overhead_cycles;
  bool anchor_seen = false;
  for (const Node& n : body.nodes()) {
    if (n.kind != NodeKind::kOp) continue;
    if (!anchor_seen && IsAnchorOp(n)) {
      i64 anchor_cycles = hw::CpuOpCycles(cfg, body, n);
      if (tuned) {
        anchor_cycles = static_cast<i64>(
            static_cast<double>(anchor_cycles) / cfg.tuned_library_speedup);
      }
      cycles += anchor_cycles;
      anchor_seen = true;
    } else if (anchor_seen) {
      cycles += hw::CpuFusedEpilogueCycles(cfg, n);
    } else {
      cycles += hw::CpuOpCycles(cfg, body, n);
    }
  }
  return cycles;
}

hw::KernelPerf CpuCompositePerf(const hw::DianaConfig& cfg,
                                const Node& composite,
                                const std::string& name) {
  hw::KernelPerf perf;
  perf.name = name;
  perf.target = "cpu";
  const Graph& body = *composite.body;
  for (const Node& n : body.nodes()) {
    if (n.kind == NodeKind::kOp) {
      perf.macs += hw::ComputeOpWork(body, n).macs;
    }
  }
  perf.compute_cycles = CpuCompositeCycles(cfg.cpu, composite);
  perf.peak_cycles = perf.compute_cycles;
  perf.overhead_cycles = cfg.runtime_call_overhead;
  // Full latency through the shared hw::CostModel (identical arithmetic:
  // compute + runtime dispatch), so CPU kernels, accelerator schedules and
  // serve placement all price a call the same way.
  perf.full_cycles = hw::CostModel(cfg).CpuKernelFullCycles(perf.compute_cycles);
  return perf;
}

}  // namespace htvm::tvmgen
