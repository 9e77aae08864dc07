// InferenceServer: concurrent multi-SoC serving over compiled artifacts.
//
// Architecture (docs/serving.md has the full picture):
//
//   trace ──Submit──▶ FleetScheduler ──batches──▶ BoundedQueue ──▶ workers
//                     (simulated clock,            (real MPMC)      (real
//                      admission control,                           threads,
//                      micro-batching,                              Executor
//                      latency accounting)                          ::Run)
//
// The scheduler decides *when* each request runs and on *which* SoC purely
// on the simulated clock, so all serving metrics are deterministic for a
// fixed trace. The worker pool then actually executes every dispatched
// request on its assigned simulated SoC — real concurrent tensor compute
// over one shared, immutable Artifact — counting inferences and simulated
// cycles per SoC and (optionally) verifying bit-exactness against a
// single-threaded reference run.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compiler/artifact.hpp"
#include "compiler/pipeline.hpp"
#include "hw/fault.hpp"
#include "runtime/executor.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "support/bounded_queue.hpp"
#include "support/histogram.hpp"

namespace htvm::serve {

// Chaos mode: a fault plan is generated from `seed` (deterministic on the
// simulated clock) and every dispatch decision plus every Executor::Run
// attempt is made against it. `plan.fleet_size` is overwritten with the
// server's fleet size.
struct ChaosOptions {
  bool enabled = false;
  u64 seed = 7;
  hw::FaultPlanOptions plan;
};

struct ServerOptions {
  int fleet_size = 1;
  int queue_capacity = 64;  // admission-control bound (pending requests)
  int worker_threads = 0;   // 0 => one per SoC
  int max_batch = 1;        // micro-batching: coalesce same-model requests
  // Compare every worker-side output against the reference run; the
  // concurrency tests switch this on to prove shared-artifact execution is
  // race-free and bit-exact.
  bool verify_outputs = false;
  ChaosOptions chaos;
  // SoC kind (SocDescription name) per fleet index. Empty = homogeneous
  // "diana" fleet of fleet_size; otherwise must have exactly fleet_size
  // entries. Models are compiled/registered per distinct kind, and the
  // scheduler places each request by per-kind predicted latency.
  std::vector<std::string> soc_kinds;
  PlacementPolicy placement = PlacementPolicy::kModelAware;
};

class InferenceServer {
 public:
  explicit InferenceServer(ServerOptions options);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Registers a compiled model before Start(). Deterministic sample inputs
  // are synthesized from `input_seed`, and a single-threaded reference run
  // captures the expected outputs. Returns the model handle for Submit.
  // On a heterogeneous fleet the artifact is installed on the fleet kinds
  // matching its soc_name only (the model is unavailable elsewhere);
  // InvalidArgument when no fleet kind matches.
  Result<int> RegisterModel(std::string name,
                            std::shared_ptr<const compiler::Artifact> artifact,
                            u64 input_seed = 0x5EEDull);

  // Compiles `network` with `compile_options` through the process-wide
  // ArtifactCache (cache::GlobalArtifactCache) and registers the result: N
  // workers serving the same model compile once, and a persisted cache
  // (--cache-dir) makes a restarted fleet compile nothing. On a
  // heterogeneous fleet the network is compiled once per distinct SoC kind
  // (a separate cache entry each: the options fingerprint hashes the SoC),
  // and per-kind cache deltas land in ServingMetrics::cache_by_kind. The
  // cache's hit/miss/evict counters and saved compile time land in
  // ServingMetrics::cache at Drain.
  Result<int> RegisterModel(std::string name, const Graph& network,
                            const compiler::CompileOptions& compile_options,
                            u64 input_seed = 0x5EEDull);

  // Makes Drain report the process-wide compile-cache counters even when
  // every model arrived pre-compiled (artifact-overload RegisterModel, e.g.
  // a --preload-dir warm start): a fleet that compiled nothing should say
  // "compiles": 0 in the metrics instead of omitting the cache block.
  void EnableCompileCacheMetrics() { used_compile_cache_ = true; }

  // Spawns the worker pool. Must be called exactly once, after all models.
  void Start();

  // Offers one request at the given simulated arrival time (non-decreasing
  // across calls). Returns ResourceExhausted when admission control rejects
  // it; the rejection is also counted in the final metrics.
  Status Submit(int model, double arrival_us);

  // Flushes the scheduler, drains and joins the worker pool, and assembles
  // the final metrics. `duration_s` is the trace horizon used for the
  // throughput time base (throughput uses max(duration, makespan)).
  ServingMetrics Drain(double duration_s);

  int num_models() const { return static_cast<int>(models_.size()); }
  // Standalone simulated service time of one request of `model` on the
  // first fleet kind serving it.
  double ServiceUs(int model) const {
    return models_[static_cast<size_t>(model)].kinds.front().service_us;
  }
  // The generated fault plan (empty unless chaos is enabled).
  const hw::FaultInjector& faults() const { return faults_; }

 private:
  // One model's execution state on one SoC kind: that kind's artifact, a
  // shared executor, the kind-specific reference outputs (dispatch differs
  // across kinds, so outputs can too), and the predicted timing the
  // scheduler places by.
  struct KindExecution {
    std::string kind;
    std::shared_ptr<const compiler::Artifact> artifact;
    std::unique_ptr<runtime::Executor> executor;
    std::vector<Tensor> reference;  // single-threaded reference outputs
    double service_us = 0;
    // Runtime dispatch overhead a coalesced same-model request avoids: the
    // graph-executor step / marshalling per kernel call is already paid by
    // the batch head.
    double batch_saving_us = 0;
  };

  struct ModelEntry {
    std::string name;
    std::vector<Tensor> inputs;  // deterministic sample inputs, shared
    std::vector<KindExecution> kinds;  // one per fleet kind with the model
  };

  // The model's execution state for the kind of fleet index `soc`.
  const KindExecution& ExecutionFor(const ModelEntry& entry, int soc) const;
  // Installs per-kind artifacts as one model: synthesizes inputs, runs
  // per-kind references, registers scheduler timing.
  Result<int> RegisterKinds(
      std::string name,
      std::vector<std::pair<std::string,
                            std::shared_ptr<const compiler::Artifact>>>
          per_kind,
      u64 input_seed);

  void WorkerLoop();

  // Completed inferences and their simulated cycles on one fleet index,
  // bumped by whichever worker ran the request.
  struct SocCounters {
    std::atomic<i64> inferences{0};
    std::atomic<i64> cycles{0};
  };

  ServerOptions options_;
  std::vector<std::string> distinct_kinds_;  // fleet order, deduplicated
  std::vector<ModelEntry> models_;
  // Per-kind compile-cache deltas accumulated across RegisterModel calls
  // (graph overload only); indexed like distinct_kinds_.
  std::vector<KindCacheStats> kind_cache_;

  // Immutable after construction; scheduler and workers share it. Must be
  // declared before scheduler_ (which keeps a pointer to it).
  hw::FaultInjector faults_;

  // Guards scheduler_, latency_ and the offered id counter. Workers read
  // scheduler_.soc_kinds(), which is fixed at construction, without it.
  std::mutex mu_;
  FleetScheduler scheduler_;
  LatencyHistogram latency_;
  u64 next_id_ = 0;

  std::vector<SocCounters> soc_counters_;  // one per fleet index
  BoundedQueue<ScheduledBatch> exec_queue_;
  std::vector<std::thread> workers_;
  std::atomic<i64> served_{0};
  std::atomic<i64> exec_failures_{0};
  std::atomic<i64> output_mismatches_{0};
  std::atomic<i64> fault_hits_{0};  // injected faults surfaced by Run
  bool started_ = false;
  bool drained_ = false;
  // Set when any model was registered through the compile cache; gates the
  // ServingMetrics::cache block.
  bool used_compile_cache_ = false;
};

}  // namespace htvm::serve
