// Ablation on the dispatch policy (Sec. III-A / IV-C):
//   A. mixed-policy variants — which layers to pin to the digital core
//   B. per-network kernel placement census across configurations
//   C. the cost of losing operator fusion on the CPU path (plain TVM with
//      vs without fused epilogues is implicit in the CPU cost model; here we
//      quantify CPU-kernel dispatch counts instead, the paper's "fewer
//      kernels dispatched to the CPU" claim).
#include "bench_common.hpp"
#include "models/registry.hpp"

namespace htvm {
namespace {

using bench::Compile;
using compiler::CompileOptions;
using models::PrecisionPolicy;

void PlacementCensus() {
  bench::PrintHeader("Ablation: kernel placement per configuration");
  std::printf("%-10s %-9s %8s %8s %8s %8s\n", "network", "config", "cpu",
              "digital", "analog", "total");
  for (const auto& model : models::MlperfTinySuite()) {
    for (const models::DeployConfig& cfg : models::DeployConfigs()) {
      const auto art = Compile(model.build(cfg.policy), cfg.options());
      i64 cpu = 0, dig = 0, ana = 0;
      for (const auto& k : art.kernels) {
        cpu += k.target == "cpu";
        dig += k.target == "digital";
        ana += k.target == "analog";
      }
      std::printf("%-10s %-9s %8lld %8lld %8lld %8zu\n", model.name, cfg.name,
                  static_cast<long long>(cpu), static_cast<long long>(dig),
                  static_cast<long long>(ana), art.kernels.size());
    }
  }
}

void MixedPolicyVariants() {
  bench::PrintHeader(
      "Ablation: which precision policy minimizes latency per network");
  std::printf("%-10s %14s %14s %14s %10s\n", "network", "int8/dig [ms]",
              "ternary/ana", "mixed/both", "best");
  for (const auto& model : models::MlperfTinySuite()) {
    const double dig = Compile(model.build(PrecisionPolicy::kInt8),
                               CompileOptions::DigitalOnly())
                           .LatencyMs();
    const double ana = Compile(model.build(PrecisionPolicy::kTernary),
                               CompileOptions::AnalogOnly())
                           .LatencyMs();
    const double mix =
        Compile(model.build(PrecisionPolicy::kMixed), CompileOptions{})
            .LatencyMs();
    const char* best = mix <= dig && mix <= ana ? "mixed"
                       : dig <= ana             ? "digital"
                                                : "analog";
    std::printf("%-10s %14.3f %14.3f %14.3f %10s\n", model.name, dig, ana,
                mix, best);
  }
  std::printf(
      "\npaper Table I: mixed wins DS-CNN & ResNet; digital wins ToyAdmos "
      "(and MobileNet full-latency).\n");
}

void TunedCpuLibrary() {
  bench::PrintHeader(
      "Ablation: hand-tuned CPU kernel library (Sec. V BYOC extension)");
  std::printf("%-10s %14s %14s %8s %12s\n", "network", "TVM [ms]",
              "+tuned [ms]", "gain", "code +%");
  for (const auto& model : models::MlperfTinySuite()) {
    const Graph net = model.build(PrecisionPolicy::kInt8);
    const auto plain = Compile(net, CompileOptions::PlainTvm());
    const auto tuned = Compile(net, CompileOptions::TunedCpuOnly());
    // MobileNet does not fit L2 on the CPU-only flows; report the would-be
    // kernel time with the OoM marker, as Table I does.
    const char* oom = !plain.memory_plan.fits ? " (OoM)" : "";
    std::printf("%-10s %14.2f %14.2f %7.2fx %11.1f%%%s\n", model.name,
                plain.LatencyMs(), tuned.LatencyMs(),
                plain.LatencyMs() / tuned.LatencyMs(),
                100.0 * (static_cast<double>(tuned.size.code_bytes) /
                             static_cast<double>(plain.size.code_bytes) -
                         1.0),
                oom);
  }
  std::printf(
      "\nTable II shape: the library class buys ~1.1-1.45x on the CPU — two "
      "orders of\nmagnitude short of accelerator offload.\n");
}

}  // namespace
}  // namespace htvm

int main() {
  htvm::PlacementCensus();
  htvm::MixedPolicyVariants();
  htvm::TunedCpuLibrary();
  return 0;
}
