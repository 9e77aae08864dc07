// Deterministic chaos harness for the serving fleet.
//
// Layers under test, bottom up:
//   hw::FaultInjector       — seeded fault plans are reproducible and the
//                             (soc, time) queries match the plan
//   runtime::Executor::Run  — injected faults surface as typed Unavailable
//                             statuses (error propagation, not asserts)
//   serve::FleetScheduler   — retry with backoff, re-dispatch to surviving
//                             SoCs, circuit-breaker eviction, per-SoC health
//   serve::InferenceServer  — end to end: with 30% of the fleet crashing
//                             mid-run (plus transient errors and slowdowns),
//                             no accepted request is lost, p99 stays
//                             bounded, and the metrics JSON is byte-stable
//                             across runs because every fault fires on the
//                             simulated clock.
#include <gtest/gtest.h>

#include <memory>

#include "compiler/pipeline.hpp"
#include "hw/fault.hpp"
#include "ir/builder.hpp"
#include "runtime/executor.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace htvm {
namespace {

using hw::FaultEvent;
using hw::FaultInjector;
using hw::FaultKind;
using hw::FaultPlanOptions;
using serve::BatchAttempt;
using serve::FleetScheduler;
using serve::InferRequest;
using serve::ScheduledBatch;
using serve::SchedulerOptions;
using serve::SocHealth;

// ------------------------------------------------------------ FaultInjector

FaultPlanOptions ChaosPlan(int fleet, double horizon_us) {
  FaultPlanOptions plan;
  plan.fleet_size = fleet;
  plan.horizon_us = horizon_us;
  plan.crash_fraction = 0.3;
  plan.transient_rate_hz = 2.0;
  plan.slow_fraction = 0.25;
  return plan;
}

TEST(FaultInjector, EmptyPlanNeverFaults) {
  FaultInjector fi;
  EXPECT_FALSE(fi.CrashedBy(0, 1e12));
  EXPECT_FALSE(fi.TransientAt(0, 0.0));
  EXPECT_DOUBLE_EQ(fi.SlowdownAt(0, 0.0), 1.0);
}

TEST(FaultInjector, PlanIsDeterministicInSeed) {
  const auto plan = ChaosPlan(8, 1e6);
  const FaultInjector a = FaultInjector::Generate(plan, 42);
  const FaultInjector b = FaultInjector::Generate(plan, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].soc, b.events()[i].soc);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_DOUBLE_EQ(a.events()[i].at_us, b.events()[i].at_us);
    EXPECT_DOUBLE_EQ(a.events()[i].duration_us, b.events()[i].duration_us);
  }
  const FaultInjector c = FaultInjector::Generate(plan, 43);
  bool identical = a.events().size() == c.events().size();
  for (size_t i = 0; identical && i < a.events().size(); ++i) {
    identical = a.events()[i].at_us == c.events()[i].at_us &&
                a.events()[i].soc == c.events()[i].soc;
  }
  EXPECT_FALSE(identical) << "different seed must yield a different plan";
}

TEST(FaultInjector, CrashFractionLandsMidRunOnDistinctSocs) {
  const FaultInjector fi = FaultInjector::Generate(ChaosPlan(10, 1e6), 7);
  int crashed = 0;
  for (int s = 0; s < 10; ++s) {
    const double t = fi.CrashTimeUs(s);
    if (t == std::numeric_limits<double>::infinity()) continue;
    ++crashed;
    EXPECT_GE(t, 0.25e6);  // "mid-run": middle half of the horizon
    EXPECT_LE(t, 0.75e6);
  }
  EXPECT_EQ(crashed, 3);  // 30% of 10
}

TEST(FaultInjector, QueriesMatchExplicitPlan) {
  const FaultInjector fi(
      /*fleet_size=*/2,
      {FaultEvent{0, FaultKind::kCrash, 500.0, 0.0, 1.0},
       FaultEvent{1, FaultKind::kTransient, 100.0, 50.0, 1.0},
       FaultEvent{1, FaultKind::kSlowdown, 200.0, 100.0, 4.0}});
  EXPECT_FALSE(fi.CrashedBy(0, 499.0));
  EXPECT_TRUE(fi.CrashedBy(0, 500.0));  // crash is inclusive at its instant
  EXPECT_TRUE(fi.CrashedBy(0, 1e9));    // and permanent
  EXPECT_FALSE(fi.CrashedBy(1, 1e9));
  EXPECT_FALSE(fi.TransientAt(1, 99.0));
  EXPECT_TRUE(fi.TransientAt(1, 100.0));
  EXPECT_TRUE(fi.TransientAt(1, 149.0));
  EXPECT_FALSE(fi.TransientAt(1, 150.0));  // window is half-open
  EXPECT_FALSE(fi.TransientAt(0, 120.0));  // faults are per SoC
  EXPECT_DOUBLE_EQ(fi.SlowdownAt(1, 250.0), 4.0);
  EXPECT_DOUBLE_EQ(fi.SlowdownAt(1, 300.0), 1.0);
}

// ----------------------------------------------- Executor fault propagation

std::shared_ptr<const compiler::Artifact> CompileSmallNet() {
  GraphBuilder b(3);
  NodeId x = b.Input("x", Shape{1, 8, 16, 16});
  ConvSpec spec;
  spec.out_channels = 16;
  x = b.ConvBlock(x, WithSamePadding(spec, 16, 16), "c");
  x = b.Flatten(b.GlobalAvgPool(x));
  x = b.DenseBlock(x, 10, /*relu=*/false);
  Graph net = b.Finish(x);
  auto artifact =
      compiler::HtvmCompiler{compiler::CompileOptions{}}.Compile(net);
  EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
  return std::make_shared<const compiler::Artifact>(std::move(*artifact));
}

TEST(ExecutorFaults, InjectedFaultsReturnUnavailableStatus) {
  const auto artifact = CompileSmallNet();
  runtime::Executor exec(artifact.get());
  Rng rng(5);
  std::vector<Tensor> inputs;
  for (NodeId id : artifact->kernel_graph.inputs()) {
    const Node& n = artifact->kernel_graph.node(id);
    inputs.push_back(Tensor::Random(n.type.shape, n.type.dtype, rng));
  }
  const FaultInjector fi(
      /*fleet_size=*/1,
      {FaultEvent{0, FaultKind::kTransient, 100.0, 50.0, 1.0},
       FaultEvent{0, FaultKind::kCrash, 1000.0, 0.0, 1.0}});

  // Attempt started inside the transient window: typed recoverable error.
  runtime::RunContext transient{&fi, 0, 120.0, 180.0};
  auto r1 = exec.Run(inputs, &transient);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kUnavailable);

  // Attempt whose window is interrupted by the crash: same typed error.
  runtime::RunContext crashed{&fi, 0, 900.0, 1100.0};
  auto r2 = exec.Run(inputs, &crashed);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kUnavailable);

  // Healthy window on the same SoC: runs and computes.
  runtime::RunContext healthy{&fi, 0, 200.0, 400.0};
  auto r3 = exec.Run(inputs, &healthy);
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_FALSE(r3->outputs.empty());
}

// ------------------------------------------------- scheduler fault handling

SchedulerOptions ChaosSchedOptions(int fleet, const FaultInjector* fi) {
  SchedulerOptions o;
  o.fleet_size = fleet;
  o.queue_capacity = 64;
  o.max_batch = 1;
  o.faults = fi;
  return o;
}

i64 TotalRequests(const std::vector<ScheduledBatch>& batches) {
  i64 n = 0;
  for (const auto& b : batches) n += static_cast<i64>(b.requests.size());
  return n;
}

TEST(ChaosScheduler, CrashedSocWorkRedispatchesToSurvivor) {
  const FaultInjector fi(
      /*fleet_size=*/2, {FaultEvent{0, FaultKind::kCrash, 0.0, 0.0, 1.0}});
  FleetScheduler sched(ChaosSchedOptions(2, &fi));
  sched.SetModelTiming(0, "diana", 100.0, 0.0);
  std::vector<ScheduledBatch> out;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        sched.Offer(InferRequest{static_cast<u64>(i), 0, i * 10.0}, &out));
  }
  auto rest = sched.Flush();
  for (auto& b : rest) out.push_back(std::move(b));
  EXPECT_EQ(TotalRequests(out), 4);
  EXPECT_EQ(sched.lost(), 0);
  for (const auto& b : out) EXPECT_EQ(b.soc, 1);  // survivor takes it all
  EXPECT_EQ(sched.crashes(), 1);
  EXPECT_EQ(sched.soc_health()[0].health, SocHealth::kDead);
  EXPECT_TRUE(sched.soc_health()[0].crashed);
  EXPECT_EQ(sched.soc_health()[1].health, SocHealth::kHealthy);
}

TEST(ChaosScheduler, TransientWindowRetriesWithBackoffThenSucceeds) {
  const FaultInjector fi(
      /*fleet_size=*/1,
      {FaultEvent{0, FaultKind::kTransient, 0.0, 60.0, 1.0}});
  FleetScheduler sched(ChaosSchedOptions(1, &fi));
  sched.SetModelTiming(0, "diana", 100.0, 0.0);
  std::vector<ScheduledBatch> out;
  EXPECT_TRUE(sched.Offer(InferRequest{0, 0, 0.0}, &out));
  auto rest = sched.Flush();
  for (auto& b : rest) out.push_back(std::move(b));
  ASSERT_EQ(out.size(), 1u);
  const ScheduledBatch& b = out[0];
  // Attempt 1 at t=0 fails (window covers it); the backoff walks the retry
  // past the 60 us window; the final attempt starts clear of it.
  EXPECT_GE(b.failed_attempts.size(), 1u);
  EXPECT_GE(b.start_us, 60.0);
  EXPECT_DOUBLE_EQ(b.done_us, b.start_us + 100.0);
  EXPECT_GT(sched.retries(), 0);
  EXPECT_EQ(sched.lost(), 0);
  EXPECT_EQ(sched.soc_health()[0].health, SocHealth::kDegraded);
}

TEST(ChaosScheduler, CircuitBreakerEvictsFlappingSoc) {
  // SoC 0 has a transient window so long that the backoff never escapes
  // it. The first request spends its 3 attempts there and re-dispatches to
  // SoC 1; the next request placed on SoC 0 fails once more, which is the
  // 4th consecutive failure and trips the breaker.
  const FaultInjector fi(
      /*fleet_size=*/2,
      {FaultEvent{0, FaultKind::kTransient, 0.0, 1e9, 1.0}});
  FleetScheduler sched(ChaosSchedOptions(2, &fi));
  sched.SetModelTiming(0, "diana", 100.0, 0.0);
  std::vector<ScheduledBatch> out;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        sched.Offer(InferRequest{static_cast<u64>(i), 0, 0.0}, &out));
  }
  auto rest = sched.Flush();
  for (auto& b : rest) out.push_back(std::move(b));
  EXPECT_EQ(TotalRequests(out), 4);
  EXPECT_EQ(sched.lost(), 0);
  EXPECT_EQ(sched.evictions(), 1);
  EXPECT_TRUE(sched.soc_health()[0].evicted);
  EXPECT_EQ(sched.soc_health()[0].failures, 4);
  EXPECT_EQ(sched.soc_health()[0].health, SocHealth::kDead);
  for (const auto& b : out) EXPECT_EQ(b.soc, 1);
}

TEST(ChaosScheduler, SlowdownStretchesServiceAndMarksDegraded) {
  const FaultInjector fi(
      /*fleet_size=*/1,
      {FaultEvent{0, FaultKind::kSlowdown, 0.0, 1e6, 3.0}});
  FleetScheduler sched(ChaosSchedOptions(1, &fi));
  sched.SetModelTiming(0, "diana", 100.0, 0.0);
  std::vector<ScheduledBatch> out;
  EXPECT_TRUE(sched.Offer(InferRequest{0, 0, 0.0}, &out));
  auto rest = sched.Flush();
  for (auto& b : rest) out.push_back(std::move(b));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].done_us, 300.0);  // 3x service time
  EXPECT_EQ(sched.soc_health()[0].health, SocHealth::kDegraded);
}

TEST(ChaosScheduler, WholeFleetDeadCountsLostInsteadOfHanging) {
  const FaultInjector fi(
      /*fleet_size=*/1, {FaultEvent{0, FaultKind::kCrash, 50.0, 0.0, 1.0}});
  FleetScheduler sched(ChaosSchedOptions(1, &fi));
  sched.SetModelTiming(0, "diana", 100.0, 0.0);
  std::vector<ScheduledBatch> out;
  EXPECT_TRUE(sched.Offer(InferRequest{0, 0, 0.0}, &out));
  EXPECT_TRUE(sched.Offer(InferRequest{1, 0, 10.0}, &out));
  auto rest = sched.Flush();
  for (auto& b : rest) out.push_back(std::move(b));
  // The first request's attempt is interrupted by the crash at t=50 and no
  // SoC survives; both admitted requests are accounted as lost.
  EXPECT_EQ(TotalRequests(out), 0);
  EXPECT_EQ(sched.lost(), 2);
  EXPECT_EQ(sched.crashes(), 1);
}

// ------------------------------------------------------------- end to end

serve::ServingMetrics ChaosServeOnce(
    const std::shared_ptr<const compiler::Artifact>& artifact, double qps,
    int fleet, u64 seed, double duration_s, double crash_fraction) {
  serve::ServerOptions options;
  options.fleet_size = fleet;
  options.queue_capacity = 64;
  options.max_batch = 4;
  options.verify_outputs = true;
  options.chaos.enabled = true;
  options.chaos.seed = seed;
  options.chaos.plan.horizon_us = duration_s * 1e6;
  options.chaos.plan.crash_fraction = crash_fraction;
  options.chaos.plan.transient_rate_hz = 20.0;
  options.chaos.plan.slow_fraction = 0.25;
  serve::InferenceServer server(options);
  auto handle = server.RegisterModel("smallnet", artifact, seed);
  EXPECT_TRUE(handle.ok()) << handle.status().ToString();
  const auto trace = serve::PoissonTrace(qps, duration_s, seed, 1);
  server.Start();
  for (const auto& event : trace) {
    (void)server.Submit(event.model, event.arrival_us);
  }
  return server.Drain(duration_s);
}

TEST(ChaosServer, ThirtyPercentFleetFailureLosesNoAcceptedRequest) {
  const auto artifact = CompileSmallNet();
  const double service_us =
      artifact->hw_config.CyclesToUs(artifact->TotalFullCycles());
  // Offered load sized to ~40% of the healthy fleet's capacity so the
  // surviving 70% can absorb the re-dispatched work.
  const int fleet = 10;
  const double duration_s = 0.2;
  const double qps = 0.4 * fleet * 1e6 / service_us;
  const auto m = ChaosServeOnce(artifact, qps, fleet, /*seed=*/11, duration_s,
                                /*crash_fraction=*/0.3);

  EXPECT_GT(m.offered, 0);
  EXPECT_EQ(m.offered, m.admitted + m.rejected);
  EXPECT_EQ(m.lost, 0);             // no accepted request lost
  EXPECT_EQ(m.served, m.admitted);  // every admitted request executed
  EXPECT_EQ(m.exec_failures, 0);    // injected faults are typed, not fatal
  EXPECT_EQ(m.output_mismatches, 0);
  EXPECT_EQ(m.crashes, 3);  // 30% of 10 discovered dead
  EXPECT_GT(m.retries, 0);
  EXPECT_GT(m.redispatches, 0);
  // Every failed attempt the scheduler planned surfaced through
  // Executor::Run as a typed Unavailable status.
  EXPECT_EQ(m.fault_hits, m.retries);
  // p99 stays bounded: within the backoff + re-dispatch envelope rather
  // than runaway queueing (the healthy-run p99 is a few service times).
  EXPECT_LE(m.latency_p99_us, 100.0 * service_us);
  int dead = 0;
  i64 inferences = 0;
  for (const auto& s : m.socs) {
    if (s.health == "dead") ++dead;
    // Failed attempts add nothing to the per-SoC counters: only the final,
    // successful run of each request is counted, at the artifact's cycles.
    EXPECT_EQ(s.simulated_cycles, s.inferences * artifact->TotalFullCycles())
        << "soc " << s.soc;
    inferences += s.inferences;
  }
  EXPECT_EQ(dead, 3);
  EXPECT_EQ(inferences, m.served);
}

TEST(ChaosServer, MetricsJsonIsByteIdenticalAcrossRuns) {
  const auto artifact = CompileSmallNet();
  const double service_us =
      artifact->hw_config.CyclesToUs(artifact->TotalFullCycles());
  const double qps = 0.4 * 6 * 1e6 / service_us;
  const auto a = ChaosServeOnce(artifact, qps, 6, 9, 0.1, 0.3);
  const auto b = ChaosServeOnce(artifact, qps, 6, 9, 0.1, 0.3);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_NE(a.ToJson().find("\"faults\""), std::string::npos);
  EXPECT_NE(a.ToJson().find("\"health\""), std::string::npos);
  const auto c = ChaosServeOnce(artifact, qps, 6, 10, 0.1, 0.3);
  EXPECT_NE(a.ToJson(), c.ToJson()) << "different seed, different run";
}

TEST(ChaosServer, ChaosOffMatchesLegacyBehaviour) {
  // chaos.enabled = false must leave the fault path fully inert.
  const auto artifact = CompileSmallNet();
  serve::ServerOptions options;
  options.fleet_size = 2;
  options.queue_capacity = 64;
  serve::InferenceServer server(options);
  auto handle = server.RegisterModel("smallnet", artifact, 7);
  ASSERT_TRUE(handle.ok());
  const auto trace = serve::PoissonTrace(200, 0.1, 7, 1);
  server.Start();
  for (const auto& event : trace) {
    (void)server.Submit(event.model, event.arrival_us);
  }
  const auto m = server.Drain(0.1);
  EXPECT_EQ(m.retries, 0);
  EXPECT_EQ(m.redispatches, 0);
  EXPECT_EQ(m.evictions, 0);
  EXPECT_EQ(m.crashes, 0);
  EXPECT_EQ(m.lost, 0);
  EXPECT_EQ(m.fault_hits, 0);
  EXPECT_EQ(m.served, m.admitted);
  for (const auto& s : m.socs) EXPECT_EQ(s.health, "healthy");
}

}  // namespace
}  // namespace htvm
