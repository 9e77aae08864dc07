// Per-inference energy estimation.
//
// The paper motivates heterogeneous offload with energy ("reducing energy
// consumption by more than one order of magnitude compared to
// general-purpose processors", Sec. I) but evaluates latency only; this is
// the natural extension. The model charges component power per active
// cycle, with constants grounded in the DIANA ISSCC'22 numbers (digital
// array ~4 TOPS/W class, analog IMC one to two orders better per MAC, host
// core tens of mW at 260 MHz); they are constants in energy.cpp.
#pragma once

#include <string>
#include <vector>

#include "compiler/artifact.hpp"

namespace htvm::runtime {

struct KernelEnergy {
  std::string name;
  std::string target;
  double pj = 0.0;
};

struct EnergyReport {
  std::vector<KernelEnergy> kernels;
  double total_pj = 0.0;
  double cpu_pj = 0.0;
  double digital_pj = 0.0;
  double analog_pj = 0.0;
  double dma_pj = 0.0;
  double idle_pj = 0.0;

  double TotalUj() const { return total_pj * 1e-6; }
  // Effective efficiency over the whole inference.
  double TopsPerWatt(i64 total_macs) const;
  std::string ToString() const;
};

EnergyReport EstimateEnergy(const compiler::Artifact& artifact);

}  // namespace htvm::runtime
