#include "hw/perf.hpp"

#include "support/string_utils.hpp"

namespace htvm::hw {

i64 RunProfile::TotalFullCycles() const {
  i64 total = 0;
  for (const auto& k : kernels) total += k.full_cycles;
  return total;
}

i64 RunProfile::TotalPeakCycles() const {
  i64 total = 0;
  for (const auto& k : kernels) total += k.peak_cycles;
  return total;
}

i64 RunProfile::TotalMacs() const {
  i64 total = 0;
  for (const auto& k : kernels) total += k.macs;
  return total;
}

i64 RunProfile::FullCyclesOn(const std::string& target) const {
  i64 total = 0;
  for (const auto& k : kernels) {
    if (k.target == target) total += k.full_cycles;
  }
  return total;
}

i64 RunProfile::KernelCountOn(const std::string& target) const {
  i64 count = 0;
  for (const auto& k : kernels) {
    if (k.target == target) ++count;
  }
  return count;
}

std::string RunProfile::ToTable() const {
  std::string out = StrFormat(
      "%-28s %-8s %10s %10s %10s %8s %8s %8s %6s\n", "kernel", "target",
      "macs", "peak_cyc", "full_cyc", "wdma", "adma", "ovh", "tiles");
  for (const auto& k : kernels) {
    out += StrFormat(
        "%-28s %-8s %10lld %10lld %10lld %8lld %8lld %8lld %6lld\n",
        k.name.c_str(), k.target.c_str(), static_cast<long long>(k.macs),
        static_cast<long long>(k.peak_cycles),
        static_cast<long long>(k.full_cycles),
        static_cast<long long>(k.weight_dma_cycles),
        static_cast<long long>(k.act_dma_cycles),
        static_cast<long long>(k.overhead_cycles),
        static_cast<long long>(k.tiles));
  }
  out += StrFormat("total: peak=%lld full=%lld macs=%lld\n",
                   static_cast<long long>(TotalPeakCycles()),
                   static_cast<long long>(TotalFullCycles()),
                   static_cast<long long>(TotalMacs()));
  return out;
}

}  // namespace htvm::hw
