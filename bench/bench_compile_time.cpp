// Host-side compiler throughput (google-benchmark): HTVM runs entirely
// ahead of time with no autotuning (Sec. II-B), so compile time is the only
// "tuning" cost a user pays. Measures the full pipeline (constant folding,
// pattern dispatch, DORY tiling search, memory planning) per network.
//
// `--smoke` skips the benchmark loop and instead compiles each network once,
// printing the PassManager's per-pass wall-clock / node-delta breakdown —
// cheap enough for CI, so per-pass compile-time regressions are visible in
// every run. It also recompiles every case with 8 CompileKernels lanes and
// asserts the artifact is byte-identical to the sequential compile
// (vm::SerializeHabForDiff), so CI enforces the parallel-pass determinism
// contract on every push.
//
// `--threads` sweeps CompileKernels lane counts {1, 2, 4, 8} on the
// MobileNet-class model, reporting the stage speedup vs 1 lane, the
// per-pass timeline deltas, and artifact byte-identity per count.
//
// `--search` accounts the cost of the cost-guided schedule search
// (docs/schedule_search.md): compile wall time and cost-model/simulator
// evaluation counts of graph-beam vs the free heuristic, on every MLPerf
// Tiny model.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "compiler/pass_manager.hpp"
#include "compiler/pipeline.hpp"
#include "dory/schedule_search.hpp"
#include "models/mlperf_tiny.hpp"
#include "support/thread_pool.hpp"
#include "vm/hab.hpp"

namespace htvm {
namespace {

void BM_CompileNetwork(benchmark::State& state,
                       Graph (*build)(models::PrecisionPolicy),
                       models::PrecisionPolicy policy,
                       compiler::CompileOptions opt) {
  const Graph net = build(policy);
  for (auto _ : state) {
    auto art = compiler::HtvmCompiler{opt}.Compile(net);
    HTVM_CHECK(art.ok());
    benchmark::DoNotOptimize(art->kernels.size());
  }
}

int RunSmoke() {
  struct Case {
    const char* name;
    Graph (*build)(models::PrecisionPolicy);
    models::PrecisionPolicy policy;
    compiler::CompileOptions opt;
  };
  const Case cases[] = {
      {"resnet/mixed", &models::BuildResNet8, models::PrecisionPolicy::kMixed,
       compiler::CompileOptions{}},
      {"resnet/digital", &models::BuildResNet8,
       models::PrecisionPolicy::kInt8,
       compiler::CompileOptions::DigitalOnly()},
      {"dscnn/mixed", &models::BuildDsCnn, models::PrecisionPolicy::kMixed,
       compiler::CompileOptions{}},
  };
  for (const Case& c : cases) {
    const Graph net = c.build(c.policy);
    compiler::CompileOptions seq_opt = c.opt;
    seq_opt.compile_threads = 1;
    auto art = compiler::HtvmCompiler{seq_opt}.Compile(net);
    if (!art.ok()) {
      std::fprintf(stderr, "compile %s failed: %s\n", c.name,
                   art.status().ToString().c_str());
      return 1;
    }
    std::printf("== compile %s ==\n%s\n", c.name,
                compiler::PassTimelineToTable(art->pass_timeline).c_str());

    // Determinism gate: 8 CompileKernels lanes must reproduce the
    // sequential artifact byte-for-byte (wall-clock excluded).
    compiler::CompileOptions par_opt = c.opt;
    par_opt.compile_threads = 8;
    auto par = compiler::HtvmCompiler{par_opt}.Compile(net);
    if (!par.ok()) {
      std::fprintf(stderr, "parallel compile %s failed: %s\n", c.name,
                   par.status().ToString().c_str());
      return 1;
    }
    if (vm::SerializeHabForDiff(*par) != vm::SerializeHabForDiff(*art)) {
      std::fprintf(stderr,
                   "parallel compile %s diverged from sequential artifact\n",
                   c.name);
      return 1;
    }
    std::printf("   parallel(8) == sequential(1): artifact identical\n\n");
  }
  return 0;
}

// `--threads`: sweep CompileKernels lane counts on the MobileNet-class
// model and report stage + end-to-end speedup vs 1 lane. Each count is
// measured over several repetitions (min wall time, standard practice for
// speedup reporting) and every parallel artifact is diffed against the
// sequential baseline.
int RunThreadsSweep() {
  const Graph net = models::BuildMobileNetV1(models::PrecisionPolicy::kInt8);
  const int counts[] = {1, 2, 4, 8};
  constexpr int kReps = 10;

  struct Sample {
    int threads = 0;
    double total_ms = 0.0;           // best end-to-end compile, ms
    double compile_kernels_ms = 0.0; // CompileKernels stage in that run, ms
    bool identical = false;
    compiler::PassTimeline timeline;
  };
  std::vector<Sample> samples;
  std::string baseline_diff;

  for (int threads : counts) {
    compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
    opt.compile_threads = threads;
    Sample s;
    s.threads = threads;
    for (int rep = 0; rep < kReps; ++rep) {
      auto art = compiler::HtvmCompiler{opt}.Compile(net);
      if (!art.ok()) {
        std::fprintf(stderr, "compile with %d threads failed: %s\n", threads,
                     art.status().ToString().c_str());
        return 1;
      }
      double total_ms = 0.0;
      double ck_ms = 0.0;
      for (const compiler::PassStat& p : art->pass_timeline) {
        total_ms += static_cast<double>(p.wall_ns) / 1e6;
        if (p.name == "CompileKernels") {
          ck_ms = static_cast<double>(p.wall_ns) / 1e6;
        }
      }
      if (rep == 0 || total_ms < s.total_ms) {
        s.total_ms = total_ms;
        s.compile_kernels_ms = ck_ms;
        s.timeline = art->pass_timeline;
      }
      if (rep == 0) {
        const std::string diff = vm::SerializeHabForDiff(*art);
        if (threads == 1) {
          baseline_diff = diff;
          s.identical = true;
        } else {
          s.identical = (diff == baseline_diff);
        }
      }
    }
    samples.push_back(std::move(s));
  }

  std::printf("CompileKernels thread sweep (mobilenet/digital, best of %d, "
              "%d hardware threads)\n",
              kReps, ThreadPool::HardwareThreads());
  std::printf("%8s %14s %12s %12s %12s %10s\n", "threads", "kernels[ms]",
              "speedup", "total[ms]", "speedup", "artifact");
  const Sample& base = samples.front();
  bool all_identical = true;
  for (const Sample& s : samples) {
    all_identical = all_identical && s.identical;
    std::printf("%8d %14.3f %11.2fx %12.3f %11.2fx %10s\n", s.threads,
                s.compile_kernels_ms,
                base.compile_kernels_ms / std::max(s.compile_kernels_ms, 1e-9),
                s.total_ms, base.total_ms / std::max(s.total_ms, 1e-9),
                s.identical ? "identical" : "DIVERGED");
  }
  std::printf("\nPer-pass timeline at %d threads (vs 1 thread):\n",
              samples.back().threads);
  for (size_t i = 0; i < samples.back().timeline.size(); ++i) {
    const compiler::PassStat& par = samples.back().timeline[i];
    const compiler::PassStat& seq = base.timeline[i];
    std::printf("  %-22s %10.3f ms -> %10.3f ms (%+.3f ms)\n",
                par.name.c_str(), static_cast<double>(seq.wall_ns) / 1e6,
                static_cast<double>(par.wall_ns) / 1e6,
                static_cast<double>(par.wall_ns - seq.wall_ns) / 1e6);
  }
  return all_identical ? 0 : 1;
}

// `--search`: how much compile time the cost-guided schedule search adds.
// Each MLPerf Tiny model is compiled per kind (best of kReps wall times)
// with the per-kind evaluation counters from
// dory::ScheduleSearchStats, so "search cost" is reported both in wall
// milliseconds and in cost-model/simulator evaluations.
int RunSearchCost() {
  constexpr int kReps = 3;
  const dory::ScheduleSearchKind kinds[] = {
      dory::ScheduleSearchKind::kHeuristic,
      dory::ScheduleSearchKind::kGraphBeam,
  };
  std::printf("schedule-search compile cost (digital config, best of %d)\n",
              kReps);
  std::printf("%-10s %-14s %12s %10s %12s %12s\n", "model", "strategy",
              "compile[ms]", "vs heur", "cm evals", "sim evals");
  for (const auto& model : models::MlperfTinySuite()) {
    // Digital-only: every offloaded layer actually tiles (analog layers
    // mostly take the untiled fast path, which no search kind searches).
    const Graph net = model.build(models::PrecisionPolicy::kInt8);
    double heuristic_ms = 0.0;
    for (dory::ScheduleSearchKind kind : kinds) {
      compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
      opt.schedule_search.kind = kind;
      double best_ms = 0.0;
      i64 cm = 0, sim = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        dory::ScheduleSearchStats::Global().Reset();
        const auto t0 = std::chrono::steady_clock::now();
        auto art = compiler::HtvmCompiler{opt}.Compile(net);
        const auto t1 = std::chrono::steady_clock::now();
        if (!art.ok()) {
          std::fprintf(stderr, "compile %s failed: %s\n", model.name,
                       art.status().ToString().c_str());
          return 1;
        }
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < best_ms) best_ms = ms;
        cm = dory::ScheduleSearchStats::Global().cost_model_evals();
        sim = dory::ScheduleSearchStats::Global().simulator_evals();
      }
      if (kind == dory::ScheduleSearchKind::kHeuristic) heuristic_ms = best_ms;
      std::printf("%-10s %-14s %12.3f %9.2fx %12lld %12lld\n", model.name,
                  dory::ScheduleSearchKindName(kind), best_ms,
                  best_ms / std::max(heuristic_ms, 1e-9),
                  static_cast<long long>(cm), static_cast<long long>(sim));
    }
  }
  return 0;
}

}  // namespace
}  // namespace htvm

int main(int argc, char** argv) {
  using namespace htvm;
  using models::PrecisionPolicy;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke();
    if (std::strcmp(argv[i], "--threads") == 0) return RunThreadsSweep();
    if (std::strcmp(argv[i], "--search") == 0) return RunSearchCost();
  }
  const auto digital = compiler::CompileOptions::DigitalOnly();
  const auto both = compiler::CompileOptions{};

  benchmark::RegisterBenchmark("compile/dscnn/digital", BM_CompileNetwork,
                               &models::BuildDsCnn, PrecisionPolicy::kInt8,
                               digital);
  benchmark::RegisterBenchmark("compile/mobilenet/digital", BM_CompileNetwork,
                               &models::BuildMobileNetV1,
                               PrecisionPolicy::kInt8, digital);
  benchmark::RegisterBenchmark("compile/resnet/digital", BM_CompileNetwork,
                               &models::BuildResNet8, PrecisionPolicy::kInt8,
                               digital);
  benchmark::RegisterBenchmark("compile/toyadmos/digital", BM_CompileNetwork,
                               &models::BuildToyAdmosDae,
                               PrecisionPolicy::kInt8, digital);
  benchmark::RegisterBenchmark("compile/resnet/mixed", BM_CompileNetwork,
                               &models::BuildResNet8, PrecisionPolicy::kMixed,
                               both);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
