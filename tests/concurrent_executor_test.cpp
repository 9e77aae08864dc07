// Concurrency tests: multiple threads driving runtime::Executor::Run over
// ONE shared compiler::Artifact must be race-free and bit-exact. Run under
// ThreadSanitizer in CI (-fsanitize=thread); the assertions here catch
// value corruption, TSan catches the races themselves.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "compiler/pipeline.hpp"
#include "ir/builder.hpp"
#include "runtime/executor.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "support/rng.hpp"

namespace htvm {
namespace {

Graph SmallNet(u64 seed) {
  GraphBuilder b(seed);
  NodeId x = b.Input("x", Shape{1, 8, 16, 16});
  ConvSpec spec;
  spec.out_channels = 16;
  x = b.ConvBlock(x, WithSamePadding(spec, 16, 16), "c");
  x = b.Flatten(b.GlobalAvgPool(x));
  x = b.DenseBlock(x, 10, /*relu=*/false);
  return b.Finish(x);
}

compiler::Artifact CompileSmallNet(const compiler::CompileOptions& options) {
  const Graph net = SmallNet(3);
  auto artifact = compiler::HtvmCompiler{options}.Compile(net);
  EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
  return std::move(*artifact);
}

void RunManyThreads(const compiler::Artifact& artifact,
                    runtime::ExecutorOptions exec_options, int threads,
                    int runs_per_thread) {
  const runtime::Executor executor(&artifact, exec_options);
  Rng rng(99);
  std::vector<Tensor> inputs;
  const Graph& g = artifact.kernel_graph;
  for (NodeId id : g.inputs()) {
    const Node& n = g.node(id);
    inputs.push_back(Tensor::Random(n.type.shape, n.type.dtype, rng));
  }
  auto reference = executor.Run(inputs);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int r = 0; r < runs_per_thread; ++r) {
        auto result = executor.Run(inputs);
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        bool same = result->outputs.size() == reference->outputs.size();
        for (size_t o = 0; same && o < reference->outputs.size(); ++o) {
          same = result->outputs[o].SameAs(reference->outputs[o]);
        }
        if (!same) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentExecutor, SharedArtifactInterpretedPath) {
  const compiler::Artifact artifact =
      CompileSmallNet(compiler::CompileOptions{});
  RunManyThreads(artifact, runtime::ExecutorOptions{}, /*threads=*/8,
                 /*runs_per_thread=*/8);
}

TEST(ConcurrentExecutor, SharedArtifactTiledPath) {
  const compiler::Artifact artifact =
      CompileSmallNet(compiler::CompileOptions{});
  runtime::ExecutorOptions options;
  options.simulate_tiles = true;
  RunManyThreads(artifact, options, /*threads=*/4, /*runs_per_thread=*/3);
}

TEST(ConcurrentExecutor, DistinctExecutorsOneArtifact) {
  const compiler::Artifact artifact =
      CompileSmallNet(compiler::CompileOptions{});
  Rng rng(5);
  std::vector<Tensor> inputs;
  for (NodeId id : artifact.kernel_graph.inputs()) {
    const Node& n = artifact.kernel_graph.node(id);
    inputs.push_back(Tensor::Random(n.type.shape, n.type.dtype, rng));
  }
  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&artifact, &inputs, &failures] {
      const runtime::Executor executor(&artifact, runtime::ExecutorOptions{});
      for (int r = 0; r < 8; ++r) {
        if (!executor.Run(inputs).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Concurrent graph construction reads the constant op table from many
// threads at once.
TEST(ConcurrentExecutor, ConcurrentGraphConstruction) {
  std::vector<std::thread> pool;
  std::atomic<int> bad{0};
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([t, &bad] {
      const Graph g = SmallNet(static_cast<u64>(t) + 1);
      if (g.NumNodes() <= 0) bad.fetch_add(1);
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(bad.load(), 0);
}

// End-to-end: the serving worker pool (>= 4 threads) over one shared
// artifact with output verification on — the acceptance concurrency test.
TEST(ConcurrentExecutor, ServingWorkerPoolSharedArtifact) {
  auto artifact = std::make_shared<const compiler::Artifact>(
      CompileSmallNet(compiler::CompileOptions{}));
  serve::ServerOptions options;
  options.fleet_size = 4;
  options.worker_threads = 4;
  options.queue_capacity = 64;
  options.max_batch = 2;
  options.verify_outputs = true;
  serve::InferenceServer server(options);
  auto handle = server.RegisterModel("smallnet", artifact, 7);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const auto trace = serve::PoissonTrace(/*qps=*/500, /*duration_s=*/0.2,
                                         /*seed=*/7, 1);
  server.Start();
  for (const auto& event : trace) {
    (void)server.Submit(event.model, event.arrival_us);
  }
  const auto metrics = server.Drain(0.2);
  EXPECT_EQ(metrics.served, metrics.admitted);
  EXPECT_EQ(metrics.exec_failures, 0);
  EXPECT_EQ(metrics.output_mismatches, 0);
}

}  // namespace
}  // namespace htvm
