// Energy extension bench (not a paper table — the paper evaluates latency;
// Sec. I motivates offload with the >10x energy gap this quantifies).
// Per-network, per-configuration energy and effective efficiency on the
// DIANA simulator.
#include "bench_common.hpp"
#include "models/registry.hpp"
#include "runtime/energy.hpp"

int main() {
  using namespace htvm;
  bench::PrintHeader(
      "Energy per inference (model extension; DIANA-class constants)");
  std::printf("%-10s %-9s %12s %12s %10s %12s\n", "network", "config",
              "energy [uJ]", "lat [ms]", "TOPS/W", "EDP [uJ*ms]");

  for (const auto& model : models::MlperfTinySuite()) {
    for (const models::DeployConfig& cfg : models::DeployConfigs()) {
      const auto art = bench::Compile(model.build(cfg.policy), cfg.options());
      const auto energy = runtime::EstimateEnergy(art);
      const i64 macs = art.Profile().TotalMacs();
      std::printf("%-10s %-9s %12.2f %12.3f %10.2f %12.3f\n", model.name,
                  cfg.name, energy.TotalUj(), art.LatencyMs(),
                  energy.TopsPerWatt(macs),
                  energy.TotalUj() * art.LatencyMs());
    }
    bench::PrintRule(70);
  }
  std::printf(
      "\nSec. I claim check: accelerators cut inference energy by \"more "
      "than one\norder of magnitude\" vs the host core — compare the tvm "
      "and digital rows.\n");
  return 0;
}
