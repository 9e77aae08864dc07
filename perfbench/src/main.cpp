// perfbench — host-wall benchmark of the HTVM reproduction.
//
//   perfbench --workload <infer|compile|serve> --seed <n> --seconds <s>
//             --trace <0|1> --data-dir <perfbench dir> --out-dir <dir>
//             [--regen]
//
// Prints an environment line, then as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// without --trace, the per-layer split with --trace 1 (which also writes a
// Chrome trace-event file to --out-dir). Exits 1 when any op failed and 2
// on bad arguments. --regen rewrites the recorded output digests instead of
// checking them; use it only for changes meant to alter outputs.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "models/registry.hpp"
#include "support/string_utils.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// The nine standard compile passes, in pipeline order.
const char* const kPasses[] = {"AbsorbPadding",
                               "ConstantFold",
                               "PartitionGraph",
                               "InsertAnalogInputClamps",
                               "LowerToKernels",
                               "CompileKernels",
                               "ComputeBinarySize",
                               "PlanL2Memory",
                               "FinalizeArtifact"};

// Coverage check: the replay's per-op, graph and executor pieces must add
// up to the real Executor::Run time within this fraction.
constexpr double kCoverageTolerance = 0.2;

int Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

bool ParseArgs(int argc, char** argv, Settings* s) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--regen") {
      s->regen = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      s->workload = v;
    } else if (arg == "--seed") {
      s->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return false;
    } else if (arg == "--seconds") {
      s->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(s->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return false;
      s->trace = v == "1";
    } else if (arg == "--data-dir") {
      s->data_dir = v;
    } else if (arg == "--out-dir") {
      s->out_dir = v;
    } else {
      return false;
    }
  }
  return (s->workload == "infer" || s->workload == "compile" ||
          s->workload == "serve") &&
         !s->data_dir.empty() && !s->out_dir.empty();
}

void EmitEndToEnd(const EndToEnd& e, Outcome* out) {
  out->Set("setup_s", e.setup_s, "s");
  out->Set("op_ms_p50", Percentile(e.op_ms, 50), "ms");
  out->Set("op_ms_p90", Percentile(e.op_ms, 90), "ms");
  out->Set("items_per_s", e.items_wall_s > 0 ? e.items / e.items_wall_s : 0,
           "1/s");
  // Simulated-clock microseconds, not host time.
  out->Set("sim_p99_us", e.sim_p99_us, "sim_us");
  out->Set("sim_cycles", e.sim_cycles, "cycles");
  out->Set("binary_kb", e.binary_kb, "kB");
  out->Set("peak_rss_mb", PeakRssMb(), "MB");
}

// Median over replayed passes of f(pass).
template <typename F>
double PerPass(const std::vector<ReplayTotals>& passes, F f) {
  std::vector<double> v;
  for (const ReplayTotals& p : passes) v.push_back(f(p));
  return Median(v);
}

void EmitLayers(const LayerReport& l, Outcome* out) {
  out->Set("models.build_ms", Mean(l.build_ms), "ms");

  for (const std::string& op : ReportedOps()) {
    auto get = [&](const ReplayTotals& p) {
      const auto it = p.ops.find(op);
      return it == p.ops.end() ? OpTotals{} : it->second;
    };
    out->Set("nn.op." + op + ".ms",
             PerPass(l.interp_passes, [&](auto& p) { return get(p).ms; }),
             "ms");
    out->Set("nn.op." + op + ".calls", PerPass(l.interp_passes, [&](auto& p) {
               return static_cast<double>(get(p).calls);
             }),
             "count");
  }
  out->Set("nn.graph_self_ms",
           PerPass(l.interp_passes, [](auto& p) { return p.graph_self_ms; }),
           "ms");

  for (const models::RegisteredModel& m : models::Registry()) {
    auto median_of = [&](const auto& per_model) {
      const auto it = per_model.find(m.name);
      return it == per_model.end() ? 0.0 : Median(it->second);
    };
    out->Set(std::string("runtime.interp_ms.") + m.name,
             median_of(l.interp_ms), "ms");
    out->Set(std::string("runtime.tiles_ms.") + m.name, median_of(l.tiles_ms),
             "ms");
  }
  out->Set("runtime.self_ms",
           PerPass(l.interp_passes, [](auto& p) { return p.runtime_self_ms; }),
           "ms");

  out->Set("dory.tiled_exec_ms",
           PerPass(l.tile_passes, [](auto& p) { return p.tiled_exec_ms; }),
           "ms");
  out->Set("dory.tiled_calls", PerPass(l.tile_passes, [](auto& p) {
             return static_cast<double>(p.tiled_calls);
           }),
           "count");
  out->Set("dory.tile_steps", PerPass(l.tile_passes, [](auto& p) {
             return static_cast<double>(p.tile_steps);
           }),
           "count");

  const double cells = std::max<double>(1, static_cast<double>(l.passes.cells));
  double passes_ms = 0;
  for (const char* pass : kPasses) {
    const auto it = l.passes.pass_ms.find(pass);
    const double ms = it == l.passes.pass_ms.end() ? 0.0 : it->second;
    out->Set(std::string("compiler.pass.") + pass + ".ms", ms / cells, "ms");
  }
  for (const auto& [name, ms] : l.passes.pass_ms) passes_ms += ms;
  // Only cells whose Compile call was timed have a pass-manager self time.
  out->Set("compiler.pm_self_ms",
           l.passes.compile_ms > 0 ? (l.passes.compile_ms - passes_ms) / cells
                                   : 0.0,
           "ms");
  out->Set("compiler.kernels", static_cast<double>(l.passes.kernels) / cells,
           "count");
  out->Set("dory.search.cost_evals", static_cast<double>(l.cost_evals),
           "count");
  out->Set("dory.search.sim_evals", static_cast<double>(l.sim_evals),
           "count");

  out->Set("vm.serialize_ms", Mean(l.serialize_ms), "ms");
  out->Set("vm.load_ms", Mean(l.load_ms), "ms");
  out->Set("vm.hab_kb", Mean(l.hab_kb), "kB");

  out->Set("cache.key_ms", Mean(l.key_ms), "ms");
  out->Set("cache.hits", Median(l.cache_hits), "count");
  out->Set("cache.misses", Median(l.cache_misses), "count");

  out->Set("serve.register_ms", Median(l.register_ms), "ms");
  out->Set("serve.submit_ms", Median(l.submit_ms), "ms");
  out->Set("serve.drain_ms", Median(l.drain_ms), "ms");
  out->Set("serve.served", Median(l.served), "count");
  out->Set("serve.batches", Median(l.batches), "count");
  out->Set("serve.rejected", Median(l.rejected), "count");
  out->Set("serve.parallel_eff", Median(l.parallel_eff), "ratio");

  // Coverage: Σ nn.op + nn.graph_self + runtime.self over the real
  // interpreter pass, per pass. Overhead: replayed minus real pass time.
  std::vector<double> coverage, overhead;
  for (size_t i = 0; i < l.interp_passes.size(); ++i) {
    const ReplayTotals& p = l.interp_passes[i];
    double pieces = p.graph_self_ms + p.runtime_self_ms;
    for (const auto& [op, t] : p.ops) pieces += t.ms;
    coverage.push_back(pieces / l.real_interp_pass_ms[i]);
    overhead.push_back(l.replay_interp_pass_ms[i] - l.real_interp_pass_ms[i]);
  }
  const double cov = Median(coverage);
  out->Set("trace.coverage", cov, "ratio");
  out->Set("trace.overhead_ms", Median(overhead), "ms");
  if (!coverage.empty() && std::abs(cov - 1.0) > kCoverageTolerance) {
    out->Fail(StrFormat("coverage %.3f: the replay does not account for "
                        "Executor::Run within %.0f%%",
                        cov, kCoverageTolerance * 100));
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Settings s;
  if (!ParseArgs(argc, argv, &s)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <infer|compile|serve> --seed "
                 "<n> --seconds <s> --trace <0|1> --data-dir <dir> "
                 "--out-dir <dir> [--regen]\n");
    return 2;
  }
  // Every thread count is explicit and at most nproc (0 would mean
  // "hardware concurrency" to the library).
  s.nproc = Nproc();
  s.compile_threads = std::min(4, s.nproc);
  s.eval_lanes = std::min(4, s.nproc);
  s.serve_workers = std::min(4, s.nproc);
  EnableTracing(s.trace);

  EndToEnd e2e;
  LayerReport layers;
  Outcome out;
  if (s.workload == "infer") RunInfer(s, &e2e, &layers, &out);
  if (s.workload == "compile") RunCompile(s, &e2e, &layers, &out);
  if (s.workload == "serve") RunServe(s, &e2e, &layers, &out);
  if (s.trace) {
    EmitLayers(layers, &out);
  } else {
    EmitEndToEnd(e2e, &out);
  }

  const std::string env = StrFormat(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %d, \"compile_threads\": %d, \"eval_lanes\": %d, "
      "\"serve_workers\": %d, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\"}",
      s.workload.c_str(), static_cast<unsigned long long>(s.seed), s.seconds,
      s.trace ? 1 : 0, s.nproc, s.compile_threads, s.eval_lanes,
      s.serve_workers, __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
  if (s.trace) {
    std::error_code ec;
    std::filesystem::create_directories(s.out_dir, ec);
    const std::string path = StrFormat(
        "%s/trace-%s-%llu.json", s.out_dir.c_str(), s.workload.c_str(),
        static_cast<unsigned long long>(s.seed));
    if (Status st = WriteTrace(path, env); !st.ok()) out.Fail(st.ToString());
  }
  std::printf("{\"env\": %s}\n%s\n", env.c_str(), out.ToJson().c_str());
  return out.failed() > 0 ? 1 : 0;
}
