// Performance counters, mirroring the paper's two measurement modes
// (Sec. IV-B):
//   peak  — accelerator trigger to completion, *including* the weight
//           transfer orchestrated by the same instruction
//   full  — host-side call to return: peak + activation DMA + tile-loop
//           control + runtime dispatch overhead
//
// CPU kernels have peak == full minus the runtime dispatch overhead.
#pragma once

#include <string>
#include <vector>

#include "support/common.hpp"

namespace htvm::hw {

struct KernelPerf {
  std::string name;     // kernel label, e.g. "diana.conv2d#3"
  std::string target;   // "cpu" | "digital" | "analog"
  i64 macs = 0;
  i64 peak_cycles = 0;
  i64 full_cycles = 0;
  // full_cycles breakdown:
  i64 compute_cycles = 0;     // accelerator/CPU arithmetic
  i64 weight_dma_cycles = 0;  // L2 -> accelerator weight memory
  i64 act_dma_cycles = 0;     // L2 <-> L1 activation tiles
  i64 overhead_cycles = 0;    // per-tile setup + runtime dispatch
  i64 tiles = 1;

  bool operator==(const KernelPerf&) const = default;
};

struct RunProfile {
  std::vector<KernelPerf> kernels;

  i64 TotalFullCycles() const;
  i64 TotalPeakCycles() const;
  i64 TotalMacs() const;
  // Cycles on kernels dispatched to `target`.
  i64 FullCyclesOn(const std::string& target) const;
  i64 KernelCountOn(const std::string& target) const;

  std::string ToTable() const;  // human-readable per-kernel breakdown
};

}  // namespace htvm::hw
