// Tests for the serving subsystem: histogram/queue utilities, the
// deterministic fleet scheduler, the Poisson trace generator, and an
// end-to-end serving run over a real compiled artifact.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <thread>

#include "compiler/pipeline.hpp"
#include "hw/soc.hpp"
#include "ir/builder.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "support/bounded_queue.hpp"
#include "support/histogram.hpp"

namespace htvm {
namespace {

// ---------------------------------------------------------------- histogram

TEST(LatencyHistogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndBounded) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  const double p50 = h.Percentile(50);
  const double p95 = h.Percentile(95);
  const double p99 = h.Percentile(99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
  // Log-bucketing bounds the relative error at ~6.7% (16 sub-buckets).
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.07);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.07);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
}

TEST(LatencyHistogram, HugeValuesDoNotOverflowBuckets) {
  LatencyHistogram h;
  h.Record(9.0e18);  // near the top of the u64 bucket range
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 9.0e18);
}

// ------------------------------------------------------------ bounded queue

TEST(BoundedQueue, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(1));
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueue, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2500;
  BoundedQueue<int> q(16);
  std::mutex mu;
  std::multiset<int> received;

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.Pop()) {
        std::lock_guard<std::mutex> lock(mu);
        received.insert(*item);
      }
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  ASSERT_EQ(received.size(), kProducers * kPerProducer);
  for (int v = 0; v < kProducers * kPerProducer; ++v) {
    EXPECT_EQ(received.count(v), 1u) << "item " << v;
  }
}

// ---------------------------------------------------------------- scheduler

using serve::FleetScheduler;
using serve::InferRequest;
using serve::ScheduledBatch;
using serve::SchedulerOptions;

// Scheduler options with every other field at its default.
SchedulerOptions FleetOptions(int fleet_size, int queue_capacity,
                              int max_batch) {
  SchedulerOptions o;
  o.fleet_size = fleet_size;
  o.queue_capacity = queue_capacity;
  o.max_batch = max_batch;
  return o;
}

TEST(FleetScheduler, RejectsWhenQueueBoundHit) {
  FleetScheduler sched(FleetOptions(/*fleet_size=*/1, /*queue_capacity=*/2,
                                    /*max_batch=*/1));
  sched.SetModelTiming(0, "diana", 100.0, 0.0);
  std::vector<ScheduledBatch> out;
  // r0 dispatches immediately; r1 and r2 fill the pending queue; r3 bounces.
  EXPECT_TRUE(sched.Offer(InferRequest{0, 0, 0.0}, &out));
  EXPECT_TRUE(sched.Offer(InferRequest{1, 0, 0.0}, &out));
  EXPECT_TRUE(sched.Offer(InferRequest{2, 0, 0.0}, &out));
  EXPECT_FALSE(sched.Offer(InferRequest{3, 0, 0.0}, &out));
  auto rest = sched.Flush();
  EXPECT_EQ(sched.admitted(), 3);
  EXPECT_EQ(sched.rejected(), 1);
  i64 dispatched = 0;
  for (const auto& b : out) dispatched += static_cast<i64>(b.requests.size());
  for (const auto& b : rest) dispatched += static_cast<i64>(b.requests.size());
  EXPECT_EQ(dispatched, 3);  // nothing admitted is ever lost
}

TEST(FleetScheduler, QueuedSameModelRequestsCoalesce) {
  FleetScheduler sched(FleetOptions(/*fleet_size=*/1, /*queue_capacity=*/16,
                                    /*max_batch=*/4));
  sched.SetModelTiming(0, "diana", 100.0, 10.0);
  std::vector<ScheduledBatch> out;
  // r0 occupies the SoC until t=100; r1/r2 queue behind it and coalesce.
  EXPECT_TRUE(sched.Offer(InferRequest{0, 0, 0.0}, &out));
  EXPECT_TRUE(sched.Offer(InferRequest{1, 0, 1.0}, &out));
  EXPECT_TRUE(sched.Offer(InferRequest{2, 0, 2.0}, &out));
  auto rest = sched.Flush();
  ASSERT_EQ(out.size() + rest.size(), 2u);  // singleton r0, then {r1, r2}
  const ScheduledBatch& batch = rest.empty() ? out.back() : rest.back();
  ASSERT_EQ(batch.requests.size(), 2u);
  EXPECT_DOUBLE_EQ(batch.start_us, 100.0);
  // Second batch member saves its dispatch overhead: 100 + (100 - 10).
  EXPECT_DOUBLE_EQ(batch.done_us, 100.0 + 100.0 + 90.0);
  EXPECT_EQ(sched.max_batch_size(), 2);
}

TEST(FleetScheduler, SpreadsLoadAcrossFleet) {
  FleetScheduler sched(FleetOptions(/*fleet_size=*/2, /*queue_capacity=*/16,
                                    /*max_batch=*/1));
  sched.SetModelTiming(0, "diana", 100.0, 0.0);
  std::vector<ScheduledBatch> out;
  EXPECT_TRUE(sched.Offer(InferRequest{0, 0, 0.0}, &out));
  EXPECT_TRUE(sched.Offer(InferRequest{1, 0, 0.0}, &out));
  auto rest = sched.Flush();
  for (const auto& b : rest) out.push_back(b);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_NE(out[0].soc, out[1].soc);  // both run at t=0 on distinct SoCs
  EXPECT_DOUBLE_EQ(out[0].start_us, 0.0);
  EXPECT_DOUBLE_EQ(out[1].start_us, 0.0);
}

// -------------------------------------------------------------------- trace

TEST(PoissonTrace, DeterministicSortedAndPlausible) {
  const auto a = serve::PoissonTrace(1000.0, 1.0, 42, 3);
  const auto b = serve::PoissonTrace(1000.0, 1.0, 42, 3);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_us, b[i].arrival_us);
    EXPECT_EQ(a[i].model, b[i].model);
  }
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].arrival_us, a[i - 1].arrival_us);
  }
  // ~1000 arrivals expected; allow +-20%.
  EXPECT_GT(a.size(), 800u);
  EXPECT_LT(a.size(), 1200u);
  const auto c = serve::PoissonTrace(1000.0, 1.0, 43, 3);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a[0].arrival_us, c[0].arrival_us);  // different seed, new trace
}

// ------------------------------------------------------------- end to end

Graph SmallNet() {
  GraphBuilder b(3);
  NodeId x = b.Input("x", Shape{1, 8, 16, 16});
  ConvSpec spec;
  spec.out_channels = 16;
  x = b.ConvBlock(x, WithSamePadding(spec, 16, 16), "c");
  x = b.Flatten(b.GlobalAvgPool(x));
  x = b.DenseBlock(x, 10, /*relu=*/false);
  return b.Finish(x);
}

std::shared_ptr<const compiler::Artifact> CompileSmallNet() {
  auto artifact =
      compiler::HtvmCompiler{compiler::CompileOptions{}}.Compile(SmallNet());
  EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
  return std::make_shared<const compiler::Artifact>(std::move(*artifact));
}

serve::ServingMetrics ServeOnce(
    const std::shared_ptr<const compiler::Artifact>& artifact, double qps,
    int fleet, int queue_cap, u64 seed, double duration_s) {
  serve::ServerOptions options;
  options.fleet_size = fleet;
  options.queue_capacity = queue_cap;
  options.max_batch = 4;
  options.verify_outputs = true;
  serve::InferenceServer server(options);
  auto handle = server.RegisterModel("smallnet", artifact, seed);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  const auto trace = serve::PoissonTrace(qps, duration_s, seed, 1);
  server.Start();
  i64 rejects = 0;
  for (const auto& event : trace) {
    const Status s = server.Submit(event.model, event.arrival_us);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      ++rejects;
    }
  }
  auto metrics = server.Drain(duration_s);
  EXPECT_EQ(metrics.rejected, rejects);
  EXPECT_EQ(metrics.offered, static_cast<i64>(trace.size()));
  return metrics;
}

TEST(InferenceServer, DeterministicRunServesEveryAdmittedRequest) {
  const auto artifact = CompileSmallNet();
  const auto m = ServeOnce(artifact, /*qps=*/300, /*fleet=*/2,
                           /*queue_cap=*/64, /*seed=*/7, /*duration_s=*/0.5);
  EXPECT_GT(m.offered, 0);
  EXPECT_EQ(m.offered, m.admitted + m.rejected);
  EXPECT_EQ(m.served, m.admitted);  // zero lost requests
  EXPECT_EQ(m.exec_failures, 0);
  EXPECT_EQ(m.output_mismatches, 0);
  EXPECT_LE(m.latency_p50_us, m.latency_p95_us);
  EXPECT_LE(m.latency_p95_us, m.latency_p99_us);
  EXPECT_LE(m.latency_p99_us, m.latency_max_us);
  EXPECT_GT(m.throughput_rps, 0.0);
  for (const auto& s : m.socs) {
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
  }
}

TEST(InferenceServer, MetricsJsonIsByteStableAcrossRuns) {
  const auto artifact = CompileSmallNet();
  const auto a = ServeOnce(artifact, 300, 2, 64, 7, 0.5);
  const auto b = ServeOnce(artifact, 300, 2, 64, 7, 0.5);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_NE(a.ToJson().find("\"latency_us\""), std::string::npos);
  EXPECT_NE(a.ToJson().find("\"utilization\""), std::string::npos);
}

TEST(InferenceServer, OverloadHitsAdmissionControl) {
  const auto artifact = CompileSmallNet();
  // One SoC, tiny queue, offered load 8x the fleet's service capacity: the
  // bound must engage, and everything admitted must still be served.
  const double service_us =
      artifact->hw_config.CyclesToUs(artifact->TotalFullCycles());
  const double qps = 8.0e6 / service_us;
  const auto m = ServeOnce(artifact, qps, /*fleet=*/1,
                           /*queue_cap=*/4, /*seed=*/11, /*duration_s=*/0.05);
  EXPECT_GT(m.rejected, 0);
  EXPECT_EQ(m.max_queue_depth, 4);
  EXPECT_EQ(m.served, m.admitted);
  EXPECT_EQ(m.output_mismatches, 0);
}

TEST(InferenceServer, PerSocCountersMatchServedWorkOnMixedFleet) {
  // Two SoC kinds with different cycle counts for the same network: every
  // served request lands on exactly one SoC's counters, priced at the
  // cycles of that SoC kind's artifact.
  const Graph net = SmallNet();
  std::map<std::string, i64> cycles_by_kind;
  for (const std::string kind : {"diana", "diana-pe32"}) {
    compiler::CompileOptions options;
    auto soc = hw::FindSoc(kind);
    ASSERT_TRUE(soc.ok()) << soc.status().ToString();
    options.soc = *soc;
    auto artifact = compiler::HtvmCompiler{options}.Compile(net);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    cycles_by_kind[kind] = artifact->TotalFullCycles();
  }
  ASSERT_NE(cycles_by_kind["diana"], cycles_by_kind["diana-pe32"]);

  serve::ServerOptions options;
  options.fleet_size = 3;
  options.soc_kinds = {"diana", "diana", "diana-pe32"};
  options.max_batch = 4;
  options.verify_outputs = true;
  serve::InferenceServer server(options);
  auto handle =
      server.RegisterModel("smallnet", net, compiler::CompileOptions{});
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  // Offered load at twice one SoC's capacity keeps every SoC busy.
  const double qps = 2.0e6 / server.ServiceUs(*handle);
  const auto trace = serve::PoissonTrace(qps, /*duration_s=*/0.05, 5, 1);
  server.Start();
  for (const auto& event : trace) {
    (void)server.Submit(*handle, event.arrival_us);
  }
  const auto m = server.Drain(0.05);

  EXPECT_GT(m.served, 0);
  EXPECT_EQ(m.served, m.admitted);
  EXPECT_EQ(m.exec_failures, 0);
  EXPECT_EQ(m.output_mismatches, 0);
  ASSERT_EQ(m.socs.size(), 3u);
  i64 inferences = 0;
  for (const auto& s : m.socs) {
    EXPECT_GT(s.inferences, 0) << "soc " << s.soc;
    EXPECT_EQ(s.simulated_cycles, s.inferences * cycles_by_kind.at(s.kind))
        << "soc " << s.soc << " (" << s.kind << ")";
    inferences += s.inferences;
  }
  EXPECT_EQ(inferences, m.served);
}

TEST(InferenceServer, RejectsNullArtifact) {
  serve::InferenceServer server(serve::ServerOptions{});
  auto status = server.RegisterModel("null", nullptr);
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace htvm
