// The three workloads and the record their runs fill in.
//
// Every workload reports the same end-to-end metrics (EndToEnd) with its
// own unit of work ("op"), and in the traced run the same per-layer set
// (LayerReport); a layer the workload does not exercise reads 0.
#pragma once

#include "common.hpp"
#include "replay.hpp"

namespace perfbench {

struct EndToEnd {
  double setup_s = 0;
  std::vector<double> op_ms;  // one sample per op of the timed loop
  double items = 0;           // work items completed in the timed loop
  double items_wall_s = 0;    // host seconds they took
  double sim_p99_us = 0;
  double sim_cycles = 0;
  double binary_kb = 0;
};

struct LayerReport {
  // models
  std::vector<double> build_ms;
  // nn + runtime, per interpreter suite pass of the replay
  std::vector<ReplayTotals> interp_passes;
  std::map<std::string, std::vector<double>> interp_ms;  // per model
  std::map<std::string, std::vector<double>> tiles_ms;   // per model
  // dory tile execution, per tile-simulated suite pass
  std::vector<ReplayTotals> tile_passes;
  // replay of the interpreter half against the real Executor::Run
  std::vector<double> real_interp_pass_ms;
  std::vector<double> replay_interp_pass_ms;
  // compiler
  PassTotals passes;
  // dory search, over one full sweep
  i64 cost_evals = 0;
  i64 sim_evals = 0;
  // vm
  std::vector<double> serialize_ms;
  std::vector<double> hab_kb;
  std::vector<double> load_ms;
  // cache, per serve session
  std::vector<double> key_ms;
  std::vector<double> cache_hits;
  std::vector<double> cache_misses;
  // serve, per session
  std::vector<double> register_ms;
  std::vector<double> submit_ms;
  std::vector<double> drain_ms;
  std::vector<double> served;
  std::vector<double> batches;
  std::vector<double> rejected;
  std::vector<double> parallel_eff;
};

void RunInfer(const Settings& s, EndToEnd* e2e, LayerReport* layers,
              Outcome* out);
void RunCompile(const Settings& s, EndToEnd* e2e, LayerReport* layers,
                Outcome* out);
void RunServe(const Settings& s, EndToEnd* e2e, LayerReport* layers,
              Outcome* out);

// Shared by infer and serve: the five registry models built for `policy`.
struct BuiltModel {
  std::string name;
  Graph graph;
};
std::vector<BuiltModel> BuildModels(models::PrecisionPolicy policy,
                                    LayerReport* layers, Outcome* out);

}  // namespace perfbench
