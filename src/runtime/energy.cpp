#include "runtime/energy.hpp"

#include "support/string_utils.hpp"

namespace htvm::runtime {
namespace {

// pJ per active cycle of each component at 260 MHz.
constexpr double kCpuPjPerCycle = 38.0;       // RISC-V host core (~10 mW)
constexpr double kDigitalPjPerCycle = 115.0;  // PE array (0.45 pJ/MAC)
constexpr double kAnalogPjPerCycle = 55.0;    // IMC macro (incl. ADC/DAC)
constexpr double kDmaPjPerCycle = 20.0;       // L2 <-> L1 traffic
constexpr double kIdlePjPerCycle = 5.0;       // host waiting on an accel
static_assert(kIdlePjPerCycle < kCpuPjPerCycle,
              "a host waiting on an accelerator must cost less than a busy "
              "one");

}  // namespace

double EnergyReport::TopsPerWatt(i64 total_macs) const {
  if (total_pj <= 0.0) return 0.0;
  // 2 ops per MAC; energy in pJ -> ops/pJ == TOPS/W.
  return 2.0 * static_cast<double>(total_macs) / total_pj;
}

std::string EnergyReport::ToString() const {
  return StrFormat(
      "energy %.2f uJ (cpu %.2f, digital %.2f, analog %.2f, dma %.2f, idle "
      "%.2f)",
      TotalUj(), cpu_pj * 1e-6, digital_pj * 1e-6, analog_pj * 1e-6,
      dma_pj * 1e-6, idle_pj * 1e-6);
}

EnergyReport EstimateEnergy(const compiler::Artifact& artifact) {
  EnergyReport report;
  for (const auto& kernel : artifact.kernels) {
    const auto& p = kernel.perf;
    KernelEnergy e;
    e.name = kernel.name;
    e.target = kernel.target;
    double pj = 0.0;
    if (kernel.target == "cpu") {
      pj += static_cast<double>(p.full_cycles) * kCpuPjPerCycle;
      report.cpu_pj += static_cast<double>(p.full_cycles) * kCpuPjPerCycle;
    } else {
      const double accel_rate =
          kernel.target == "digital" ? kDigitalPjPerCycle : kAnalogPjPerCycle;
      const double busy =
          static_cast<double>(p.compute_cycles + p.weight_dma_cycles);
      const double dma = static_cast<double>(p.act_dma_cycles);
      const double host = static_cast<double>(p.overhead_cycles);
      const double idle =
          std::max(0.0, static_cast<double>(p.full_cycles) - host);
      pj += busy * accel_rate + dma * kDmaPjPerCycle +
            host * kCpuPjPerCycle + idle * kIdlePjPerCycle;
      if (kernel.target == "digital") {
        report.digital_pj += busy * accel_rate;
      } else {
        report.analog_pj += busy * accel_rate;
      }
      report.dma_pj += dma * kDmaPjPerCycle;
      report.cpu_pj += host * kCpuPjPerCycle;
      report.idle_pj += idle * kIdlePjPerCycle;
    }
    e.pj = pj;
    report.total_pj += pj;
    report.kernels.push_back(std::move(e));
  }
  return report;
}

}  // namespace htvm::runtime
