// Determinism + differential battery for the parallel CompileKernels pass
// and the support/thread_pool it runs on (docs/compiler_passes.md "Parallel
// CompileKernels").
//
// The contract under test: compile_threads changes wall-clock only. For
// every model x config, the canonical HAB form at thread counts {2, 4, 8}
// is byte-identical to compile_threads=1 (kernel names, order, schedules,
// size report and pass-timeline shape; wall-clock fields excluded via
// vm::SerializeHabForDiff), and ParallelFor returns the same
// error the sequential loop would. The stress test runs N compiler threads
// over one shared PassManager + ArtifactCache while M threads hammer the
// cache — the TSan CI job runs this file to prove the pass is race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cache/artifact_cache.hpp"
#include "compiler/compile_passes.hpp"
#include "compiler/pipeline.hpp"
#include "hab_diff.hpp"
#include "models/layer_zoo.hpp"
#include "models/mlperf_tiny.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"
#include "support/thread_pool.hpp"
#include "vm/hab.hpp"

namespace htvm {
namespace {

struct NamedConfig {
  const char* name;
  compiler::CompileOptions options;
};

std::vector<NamedConfig> AllConfigs() {
  return {{"cpu-only", compiler::CompileOptions::PlainTvm()},
          {"digital", compiler::CompileOptions::DigitalOnly()},
          {"analog", compiler::CompileOptions::AnalogOnly()},
          {"mixed", compiler::CompileOptions{}}};
}

// Layer-zoo sweep: every Fig. 4 conv geometry plus depthwise, ternary
// (analog-targetable), dense and residual-add single-layer graphs.
std::vector<std::pair<std::string, Graph>> LayerZooModels() {
  std::vector<std::pair<std::string, Graph>> models;
  int index = 0;
  for (const models::ConvLayerParams& p : models::Fig4Layers()) {
    models.emplace_back(StrFormat("fig4-conv%d", index++),
                        models::MakeConvLayerGraph(p));
  }
  models::ConvLayerParams dw;
  dw.depthwise = true;
  models.emplace_back("dwconv", models::MakeConvLayerGraph(dw));
  models::ConvLayerParams ternary;
  ternary.weight_dtype = DType::kTernary;
  models.emplace_back("ternary-conv", models::MakeConvLayerGraph(ternary));
  models.emplace_back("dense", models::MakeDenseLayerGraph(256, 64));
  models.emplace_back("add", models::MakeAddLayerGraph(16, 16, 16));
  return models;
}

// Compiles and renders the deterministic diff form; a failed compile
// renders as its status string so error paths diff too.
std::string CompileDiffText(const Graph& network,
                            compiler::CompileOptions options, int threads) {
  options.compile_threads = threads;
  auto artifact = compiler::HtvmCompiler{options}.Compile(network);
  if (!artifact.ok()) return "ERROR: " + artifact.status().ToString();
  return vm::SerializeHabForDiff(*artifact);
}

TEST(ParallelCompile, LayerZooDifferentialAcrossThreadCounts) {
  for (const auto& [model_name, network] : LayerZooModels()) {
    for (const NamedConfig& config : AllConfigs()) {
      const std::string sequential =
          CompileDiffText(network, config.options, 1);
      for (const int threads : {2, 4, 8}) {
        EXPECT_PRED_FORMAT2(test::HabBytesEq, sequential,
                            CompileDiffText(network, config.options, threads))
            << model_name << " x " << config.name << " @ " << threads
            << " threads";
      }
    }
  }
}

TEST(ParallelCompile, MlperfNetworksDifferential) {
  // Full multi-layer networks: many composites per compile, so the pool
  // actually interleaves lanes. Mixed precision on both accelerators, and
  // int8 on the digital array alone (every offloaded layer tiles).
  struct Variant {
    const char* name;
    models::PrecisionPolicy policy;
    compiler::CompileOptions options;
  };
  const Variant variants[] = {
      {"mixed", models::PrecisionPolicy::kMixed, compiler::CompileOptions{}},
      {"digital", models::PrecisionPolicy::kInt8,
       compiler::CompileOptions::DigitalOnly()},
  };
  for (const auto& model : models::MlperfTinySuite()) {
    for (const Variant& v : variants) {
      const Graph net = model.build(v.policy);
      const std::string sequential = CompileDiffText(net, v.options, 1);
      EXPECT_PRED_FORMAT2(test::HabBytesEq, sequential,
                          CompileDiffText(net, v.options, 8))
          << model.name << "/" << v.name;
    }
  }
}

// Regression for the latent bug a naive parallelization ships: kernel.name
// used to be generated from a mutable kernel_index inside the compile loop,
// so worker interleaving would permute names. Names are now assigned from
// the pre-dispatch snapshot: position i in node order is always "<op>#i".
TEST(ParallelCompile, KernelNamesStableAcrossThreadCounts) {
  const Graph net = models::BuildMobileNetV1(models::PrecisionPolicy::kInt8);
  compiler::CompileOptions options = compiler::CompileOptions::DigitalOnly();
  options.compile_threads = 1;
  auto sequential = compiler::HtvmCompiler{options}.Compile(net);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  options.compile_threads = 8;
  auto parallel = compiler::HtvmCompiler{options}.Compile(net);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(sequential->kernels.size(), parallel->kernels.size());
  ASSERT_GT(sequential->kernels.size(), 8u);  // enough lanes to interleave
  NodeId last_node = kInvalidNode;
  for (size_t i = 0; i < sequential->kernels.size(); ++i) {
    const auto& s = sequential->kernels[i];
    const auto& p = parallel->kernels[i];
    EXPECT_EQ(s.name, p.name) << "kernel " << i;
    EXPECT_EQ(s.target, p.target) << "kernel " << i;
    EXPECT_EQ(s.node, p.node) << "kernel " << i;
    // Name suffix is the position in node order, independent of the lane
    // that compiled it.
    const std::string suffix = StrFormat("#%zu", i);
    ASSERT_GE(p.name.size(), suffix.size());
    EXPECT_EQ(p.name.substr(p.name.size() - suffix.size()), suffix)
        << p.name;
    // Kernels splice back in node order.
    EXPECT_GT(p.node, last_node);
    last_node = p.node;
  }
}

// --- ParallelFor / ThreadPool unit tests ---------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  const Status status =
      ParallelFor(pool, 257, 8, [&](i64 i) -> Status {
        hits[static_cast<size_t>(i)].fetch_add(1);
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroAndSingleItem) {
  ThreadPool pool(2);
  EXPECT_TRUE(ParallelFor(pool, 0, 4, [](i64) -> Status {
                HTVM_UNREACHABLE("no items");
              }).ok());
  std::atomic<int> calls{0};
  EXPECT_TRUE(ParallelFor(pool, 1, 4, [&](i64 i) -> Status {
                EXPECT_EQ(i, 0);
                calls.fetch_add(1);
                return Status::Ok();
              }).ok());
  EXPECT_EQ(calls.load(), 1);
}

// The first-error-wins contract: the returned status is the one the
// sequential loop returns — the failure at the *lowest* index — no matter
// how lanes interleave. Randomized failure sets, many repetitions.
TEST(ThreadPool, FirstErrorWinsMatchesSequentialLoop) {
  ThreadPool pool(8);
  Rng rng(0x1E571);
  for (int rep = 0; rep < 40; ++rep) {
    const i64 n = rng.UniformInt(20, 300);
    const i64 modulus = rng.UniformInt(3, 23);
    const i64 offset = rng.UniformInt(0, modulus - 1);
    const auto fails = [&](i64 i) { return i % modulus == offset; };
    const auto fn = [&](i64 i) -> Status {
      if (fails(i)) {
        return Status::ResourceExhausted(
            StrFormat("boom %lld", static_cast<long long>(i)));
      }
      return Status::Ok();
    };
    Status expected = Status::Ok();
    for (i64 i = 0; i < n; ++i) {
      if (fails(i)) {
        expected = fn(i);
        break;
      }
    }
    const i64 lanes = rng.UniformInt(2, 8);
    const Status got = ParallelFor(pool, n, lanes, fn);
    EXPECT_EQ(expected.ok(), got.ok()) << "rep " << rep;
    EXPECT_EQ(expected.ToString(), got.ToString()) << "rep " << rep;
  }
}

TEST(ThreadPool, FailureCancelsQueuedTail) {
  ThreadPool pool(4);
  std::atomic<bool> error_flagged{false};
  std::atomic<i64> executed{0};
  const i64 n = 100000;
  const Status status = ParallelFor(pool, n, 4, [&](i64 i) -> Status {
    executed.fetch_add(1);
    if (i == 0) {
      error_flagged.store(true);
      return Status::Internal("cancel the rest");
    }
    // Hold every other lane until the failure is flagged, so the claim
    // cursor cannot outrun cancellation; this makes the assertion below
    // deterministic rather than a race we usually win.
    while (!error_flagged.load()) std::this_thread::yield();
    return Status::Ok();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "cancel the rest");
  // Only indices claimed before the flag ran; the tail was skipped.
  EXPECT_LT(executed.load(), n / 10);
}

TEST(ThreadPool, SubmitAfterShutdownFails) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Submit([&] { ran.fetch_add(1); }));
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 1);  // accepted tasks drain before join
  EXPECT_FALSE(pool.Submit([&] { ran.fetch_add(1); }));
  EXPECT_FALSE(pool.TrySubmit([&] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 1);
  // ParallelFor still completes inline on a dead pool.
  std::atomic<int> inline_runs{0};
  EXPECT_TRUE(ParallelFor(pool, 16, 4, [&](i64) -> Status {
                inline_runs.fetch_add(1);
                return Status::Ok();
              }).ok());
  EXPECT_EQ(inline_runs.load(), 16);
}

// --- Concurrency stress (the TSan CI job runs this file) -----------------
//
// N compiler threads push distinct models through ONE shared PassManager
// with parallel CompileKernels lanes on the shared pool, all against ONE
// shared ArtifactCache, while M threads compile the same models again
// (cache hits) concurrently. Every result must equal the sequential
// reference byte-for-byte.
TEST(ParallelCompile, StressSharedPassManagerAndCache) {
  constexpr int kCompilerThreads = 4;
  constexpr int kCacheThreads = 2;
  constexpr int kItersPerThread = 3;

  std::vector<Graph> nets;
  for (int m = 0; m < kCompilerThreads; ++m) {
    models::ConvLayerParams p;
    p.c = 8 + 8 * m;
    p.k = 16 + 8 * m;
    p.iy = p.ix = 16 + 4 * m;
    nets.push_back(models::MakeConvLayerGraph(p));
  }

  // Sequential references, compiled before any concurrency starts.
  std::vector<std::string> reference;
  for (const Graph& net : nets) {
    compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
    reference.push_back(CompileDiffText(net, opt, 1));
    ASSERT_EQ(reference.back().rfind("ERROR:", 0), std::string::npos);
  }

  cache::ArtifactCache shared_cache;
  const compiler::PassManager pipeline = compiler::BuildHtvmPassPipeline();
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};

  const auto compile_via_pipeline = [&](int model, int lanes) {
    compiler::CompileOptions opt = compiler::CompileOptions::DigitalOnly();
    opt.compile_threads = lanes;
    opt.cache = &shared_cache;
    compiler::CompileState state(opt);
    const Status status =
        pipeline.Run(nets[static_cast<size_t>(model)], state);
    if (!status.ok()) {
      failures.fetch_add(1);
      return;
    }
    if (vm::SerializeHabForDiff(state.artifact) !=
        reference[static_cast<size_t>(model)]) {
      mismatches.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kCompilerThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kItersPerThread; ++it) {
        compile_via_pipeline(t, /*lanes=*/2 + t % 3);
      }
    });
  }
  for (int t = 0; t < kCacheThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kItersPerThread * 2; ++it) {
        compile_via_pipeline((t + it) % kCompilerThreads, /*lanes=*/4);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const cache::CacheStats stats = shared_cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            kCompilerThreads * kItersPerThread + kCacheThreads * 2 * kItersPerThread);
  EXPECT_GT(stats.hits, 0);  // repeat compiles were served by the cache
}

}  // namespace
}  // namespace htvm
