// Schedule-search autotuner evaluation: MLPerf Tiny suite + TinyTransformer
// x every registered SoC family x {heuristic, graph-beam}.
//
// For each (model, SoC) cell the network is compiled once per kind and the
// simulated end-to-end latency (Artifact::TotalFullCycles, the same number
// Table I reports) of graph-beam is compared against the DORY Eq. 1-5
// heuristic baseline. The table reports per-cell deltas plus the geomean
// ratio and search cost (cost-model + simulator evaluations). Each row also
// shows the searched-vs-heuristic plan delta: how many adjacent digital
// pairs the winning GraphPlan fused ("f") and how many dispatch decisions
// it flipped away from the heuristic partitioning ("c").
//
// `--check` is the CI contract: graph-beam must match or beat the
// heuristic on EVERY cell (it always includes the heuristic pick and plan
// as finalists, so a regression means the argmin tie-breaking broke).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "compiler/pipeline.hpp"
#include "compiler/plan_search.hpp"
#include "dory/schedule_search.hpp"
#include "hw/soc.hpp"
#include "models/mlperf_tiny.hpp"
#include "models/transformer.hpp"

namespace htvm {
namespace {

struct StrategyRun {
  i64 full_cycles = 0;
  i64 cost_model_evals = 0;
  i64 simulator_evals = 0;
  // The winning plan's delta against the heuristic plan for the same cell
  // (absent for the heuristic run itself).
  bool has_plan = false;
  i64 plan_fused = 0;      // fused pairs (heuristic never fuses)
  i64 plan_cpu_flips = 0;  // dispatch decisions changed vs heuristic
};

StrategyRun CompileWith(const Graph& net, const hw::SocDescription& soc,
                        dory::ScheduleSearchKind kind,
                        const dory::GraphPlan& heuristic_plan) {
  compiler::CompileOptions options;  // mixed: dispatch picks per layer
  options.soc = soc;
  options.schedule_search.kind = kind;
  dory::ScheduleSearchStats::Global().Reset();
  StrategyRun run;
  const compiler::Artifact art = bench::Compile(net, options);
  run.full_cycles = art.TotalFullCycles();
  run.cost_model_evals = dory::ScheduleSearchStats::Global().cost_model_evals();
  run.simulator_evals = dory::ScheduleSearchStats::Global().simulator_evals();
  if (!art.plan.empty() &&
      art.plan.decisions.size() == heuristic_plan.decisions.size()) {
    run.has_plan = true;
    run.plan_fused = art.plan.FusedPairs();
    for (size_t i = 0; i < art.plan.decisions.size(); ++i) {
      if (art.plan.decisions[i].target != heuristic_plan.decisions[i].target) {
        ++run.plan_cpu_flips;
      }
    }
  }
  return run;
}

int Run(bool check) {
  const std::vector<std::string> socs = hw::SocNames();
  std::vector<std::pair<std::string, Graph>> nets;
  for (const auto& model : models::MlperfTinySuite()) {
    nets.emplace_back(model.name,
                      model.build(models::PrecisionPolicy::kMixed));
  }
  nets.emplace_back("tinyxfmr",
                    models::TinyTransformer(/*depth=*/1, /*heads=*/2,
                                            /*d_model=*/32, /*seq_len=*/16));

  bench::PrintHeader("schedule-search autotuner vs DORY heuristic");
  std::printf("%-10s %-14s %14s %16s\n", "model", "soc", "heuristic",
              "graph-beam");
  bench::PrintRule(60);

  double log_ratio_sum = 0.0;
  i64 evals = 0;
  i64 sim_evals = 0;
  int cells = 0;
  int regressions = 0;

  for (const auto& [name, net] : nets) {
    for (const std::string& soc_name : socs) {
      const hw::SocDescription soc = *hw::FindSoc(soc_name);
      compiler::CompileOptions plan_options;
      plan_options.soc = soc;
      const auto heuristic_plan =
          compiler::HeuristicGraphPlan(net, plan_options);
      HTVM_CHECK_MSG(heuristic_plan.ok(), "heuristic plan extraction failed");
      const StrategyRun base = CompileWith(
          net, soc, dory::ScheduleSearchKind::kHeuristic, *heuristic_plan);
      const StrategyRun searched = CompileWith(
          net, soc, dory::ScheduleSearchKind::kGraphBeam, *heuristic_plan);
      log_ratio_sum += std::log(static_cast<double>(searched.full_cycles) /
                                static_cast<double>(base.full_cycles));
      evals += searched.cost_model_evals;
      sim_evals += searched.simulator_evals;
      if (searched.full_cycles > base.full_cycles) {
        ++regressions;
        std::printf("REGRESSION: %s on %s: graph-beam %lld > heuristic %lld\n",
                    name.c_str(), soc_name.c_str(),
                    static_cast<long long>(searched.full_cycles),
                    static_cast<long long>(base.full_cycles));
      }
      ++cells;
      const double delta_pct =
          100.0 * (static_cast<double>(searched.full_cycles) /
                       static_cast<double>(base.full_cycles) -
                   1.0);
      const std::string plan_delta =
          searched.has_plan
              ? StrFormat("f%lldc%lld",
                          static_cast<long long>(searched.plan_fused),
                          static_cast<long long>(searched.plan_cpu_flips))
              : "-";
      std::printf("%-10s %-14s %14lld %+7.2f%% %-7s\n", name.c_str(),
                  soc_name.c_str(), static_cast<long long>(base.full_cycles),
                  delta_pct, plan_delta.c_str());
    }
  }

  bench::PrintRule(60);
  const double geomean = std::exp(log_ratio_sum / cells);
  std::printf(
      "graph-beam geomean latency ratio %.4f (%+.2f%%) over %d cells | "
      "%lld cost-model + %lld simulator evals\n",
      geomean, 100.0 * (geomean - 1.0), cells, static_cast<long long>(evals),
      static_cast<long long>(sim_evals));

  if (check) {
    if (regressions > 0) {
      std::fprintf(stderr,
                   "bench_autotune --check: %d cell(s) slower than the "
                   "heuristic baseline\n",
                   regressions);
      return 1;
    }
    std::printf("check: graph-beam <= heuristic on all %d model x SoC cells\n",
                cells);
  }
  return 0;
}

}  // namespace
}  // namespace htvm

int main(int argc, char** argv) {
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  return htvm::Run(check);
}
