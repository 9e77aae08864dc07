#include "serve/server.hpp"

#include <algorithm>

#include "cache/artifact_cache.hpp"
#include "hw/cost_model.hpp"
#include "hw/soc.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

namespace htvm::serve {
namespace {

hw::FaultInjector MakeInjector(const ServerOptions& options) {
  if (!options.chaos.enabled) return {};
  hw::FaultPlanOptions plan = options.chaos.plan;
  plan.fleet_size = options.fleet_size;
  return hw::FaultInjector::Generate(plan, options.chaos.seed);
}

SchedulerOptions MakeSchedulerOptions(const ServerOptions& options,
                                      const hw::FaultInjector* faults) {
  SchedulerOptions so;
  so.fleet_size = options.fleet_size;
  so.queue_capacity = options.queue_capacity;
  so.max_batch = options.max_batch;
  so.faults = options.chaos.enabled ? faults : nullptr;
  so.soc_kinds = options.soc_kinds;
  so.placement = options.placement;
  return so;
}

}  // namespace

InferenceServer::InferenceServer(ServerOptions options)
    : options_(options),
      faults_(MakeInjector(options)),
      scheduler_(MakeSchedulerOptions(options, &faults_)),
      soc_counters_(static_cast<size_t>(options.fleet_size)),
      // The exec queue throttles the (real-time) submitter against the
      // (real-time) workers; admission control happened already, so Push
      // blocks instead of dropping.
      exec_queue_(256) {
  for (const std::string& kind : scheduler_.soc_kinds()) {
    if (std::find(distinct_kinds_.begin(), distinct_kinds_.end(), kind) ==
        distinct_kinds_.end()) {
      distinct_kinds_.push_back(kind);
    }
  }
}

const InferenceServer::KindExecution& InferenceServer::ExecutionFor(
    const ModelEntry& entry, int soc) const {
  const std::string& kind = scheduler_.soc_kinds()[static_cast<size_t>(soc)];
  for (const KindExecution& ke : entry.kinds) {
    if (ke.kind == kind) return ke;
  }
  // Unreachable: the scheduler never places a model on a kind without it.
  HTVM_CHECK_MSG(false, "no execution state for this SoC kind");
  return entry.kinds.front();
}

InferenceServer::~InferenceServer() {
  exec_queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

Result<int> InferenceServer::RegisterKinds(
    std::string name,
    std::vector<
        std::pair<std::string, std::shared_ptr<const compiler::Artifact>>>
        per_kind,
    u64 input_seed) {
  HTVM_CHECK_MSG(!started_, "RegisterModel must precede Start");
  HTVM_CHECK(!per_kind.empty());

  ModelEntry entry;
  entry.name = std::move(name);

  // Inputs are synthesized once from the first kind's kernel graph (input
  // nodes are the network's, identical across kinds) so every kind's
  // reference and every worker run read the same tensors.
  Rng rng(input_seed ^ (models_.size() * 0x9E3779B97F4A7C15ull));
  const Graph& g0 = per_kind.front().second->kernel_graph;
  for (NodeId id : g0.inputs()) {
    const Node& n = g0.node(id);
    entry.inputs.push_back(Tensor::Random(n.type.shape, n.type.dtype, rng));
  }

  const int model = static_cast<int>(models_.size());
  for (auto& [kind, artifact] : per_kind) {
    if (!artifact->memory_plan.fits) {
      return Status::ResourceExhausted("RegisterModel: artifact '" +
                                       entry.name + "' does not fit in L2 on " +
                                       kind);
    }
    KindExecution ke;
    ke.kind = kind;
    ke.artifact = std::move(artifact);
    ke.executor = std::make_unique<runtime::Executor>(ke.artifact.get());
    // Placement timing comes from the shared hw::CostModel — the same
    // oracle the compiler's schedule search optimizes against, so the
    // scheduler's service(model, kind) estimate and the tuner agree.
    const compiler::Artifact& art = *ke.artifact;
    const hw::CostModel cost(art.hw_config);
    ke.service_us = cost.ServiceUs(art.TotalFullCycles());
    ke.batch_saving_us =
        cost.BatchSavingUs(static_cast<i64>(art.kernels.size()));
    auto reference = ke.executor->Run(entry.inputs);
    if (!reference.ok()) return reference.status();
    ke.reference = std::move(reference.value().outputs);
    scheduler_.SetModelTiming(model, ke.kind, ke.service_us,
                              ke.batch_saving_us);
    entry.kinds.push_back(std::move(ke));
  }

  models_.push_back(std::move(entry));
  return model;
}

Result<int> InferenceServer::RegisterModel(
    std::string name, std::shared_ptr<const compiler::Artifact> artifact,
    u64 input_seed) {
  HTVM_CHECK_MSG(!started_, "RegisterModel must precede Start");
  if (artifact == nullptr) {
    return Status::InvalidArgument("RegisterModel: null artifact");
  }
  // A pre-compiled artifact serves exactly the fleet kinds matching the
  // SoC it was compiled for.
  std::vector<
      std::pair<std::string, std::shared_ptr<const compiler::Artifact>>>
      per_kind;
  for (const std::string& kind : distinct_kinds_) {
    if (kind == artifact->soc_name) per_kind.emplace_back(kind, artifact);
  }
  if (per_kind.empty()) {
    std::string kinds;
    for (const std::string& kind : distinct_kinds_) {
      if (!kinds.empty()) kinds += ", ";
      kinds += kind;
    }
    return Status::InvalidArgument(
        "RegisterModel: artifact '" + name + "' was compiled for SoC '" +
        artifact->soc_name + "' but the fleet has only [" + kinds + "]");
  }
  return RegisterKinds(std::move(name), std::move(per_kind), input_seed);
}

Result<int> InferenceServer::RegisterModel(
    std::string name, const Graph& network,
    const compiler::CompileOptions& compile_options, u64 input_seed) {
  HTVM_CHECK_MSG(!started_, "RegisterModel must precede Start");
  used_compile_cache_ = true;
  if (kind_cache_.empty()) {
    for (const std::string& kind : distinct_kinds_) {
      kind_cache_.push_back(KindCacheStats{kind, 0, 0, 0});
    }
  }
  // One compile per distinct fleet kind, each through the process-wide
  // cache under its own SoC-fingerprinted key; the stat deltas around each
  // compile attribute hits/misses/compiles to the kind.
  std::vector<
      std::pair<std::string, std::shared_ptr<const compiler::Artifact>>>
      per_kind;
  for (size_t k = 0; k < distinct_kinds_.size(); ++k) {
    const std::string& kind = distinct_kinds_[k];
    compiler::CompileOptions options = compile_options;
    HTVM_ASSIGN_OR_RETURN(soc, hw::FindSoc(kind));
    options.soc = soc;
    options.cache = &cache::GlobalArtifactCache();
    const cache::CacheStats before = cache::GlobalArtifactCache().stats();
    compiler::HtvmCompiler compiler(options);
    auto artifact = compiler.Compile(network);
    if (!artifact.ok()) return artifact.status();
    const cache::CacheStats after = cache::GlobalArtifactCache().stats();
    kind_cache_[k].hits += after.hits - before.hits;
    kind_cache_[k].misses += after.misses - before.misses;
    kind_cache_[k].compiles += after.compiles - before.compiles;
    per_kind.emplace_back(
        kind,
        std::make_shared<const compiler::Artifact>(std::move(*artifact)));
  }
  return RegisterKinds(std::move(name), std::move(per_kind), input_seed);
}

void InferenceServer::Start() {
  HTVM_CHECK_MSG(!started_, "Start called twice");
  HTVM_CHECK_MSG(!models_.empty(), "Start without registered models");
  started_ = true;
  int threads = options_.worker_threads > 0 ? options_.worker_threads
                                            : options_.fleet_size;
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Status InferenceServer::Submit(int model, double arrival_us) {
  HTVM_CHECK_MSG(started_ && !drained_, "Submit outside Start..Drain");
  if (model < 0 || model >= num_models()) {
    return Status::InvalidArgument(
        StrFormat("Submit: unknown model handle %d", model));
  }
  std::vector<ScheduledBatch> dispatched;
  bool admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const InferRequest request{next_id_++, model, arrival_us};
    admitted = scheduler_.Offer(request, &dispatched);
    for (const ScheduledBatch& batch : dispatched) {
      for (const InferRequest& r : batch.requests) {
        latency_.Record(batch.done_us - r.arrival_us);
      }
    }
  }
  for (ScheduledBatch& batch : dispatched) {
    exec_queue_.Push(std::move(batch));
  }
  if (!admitted) {
    return Status::ResourceExhausted(
        StrFormat("serving queue full (capacity %d)",
                  options_.queue_capacity));
  }
  return Status::Ok();
}

ServingMetrics InferenceServer::Drain(double duration_s) {
  HTVM_CHECK_MSG(started_ && !drained_, "Drain outside Start..Drain");
  drained_ = true;

  std::vector<ScheduledBatch> rest;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rest = scheduler_.Flush();
    for (const ScheduledBatch& batch : rest) {
      for (const InferRequest& r : batch.requests) {
        latency_.Record(batch.done_us - r.arrival_us);
      }
    }
  }
  for (ScheduledBatch& batch : rest) exec_queue_.Push(std::move(batch));
  exec_queue_.Close();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  ServingMetrics m;
  m.placement = PlacementPolicyName(options_.placement);
  m.offered = scheduler_.offered();
  m.admitted = scheduler_.admitted();
  m.rejected = scheduler_.rejected();
  m.served = served_.load();
  m.exec_failures = exec_failures_.load();
  m.output_mismatches = output_mismatches_.load();
  m.retries = scheduler_.retries();
  m.redispatches = scheduler_.redispatches();
  m.evictions = scheduler_.evictions();
  m.crashes = scheduler_.crashes();
  m.lost = scheduler_.lost();
  m.fault_hits = fault_hits_.load();
  m.batches = scheduler_.batches();
  m.max_batch_size = scheduler_.max_batch_size();
  m.mean_batch_size =
      m.batches > 0
          ? static_cast<double>(m.admitted) / static_cast<double>(m.batches)
          : 0.0;
  m.duration_s = duration_s;
  m.makespan_s = scheduler_.makespan_us() / 1e6;
  const double time_base_s = std::max(m.duration_s, m.makespan_s);
  m.throughput_rps =
      time_base_s > 0 ? static_cast<double>(m.served) / time_base_s : 0.0;
  m.latency_p50_us = latency_.Percentile(50.0);
  m.latency_p95_us = latency_.Percentile(95.0);
  m.latency_p99_us = latency_.Percentile(99.0);
  m.latency_mean_us = latency_.Mean();
  m.latency_max_us = latency_.max();
  m.queue_capacity = options_.queue_capacity;
  m.max_queue_depth = scheduler_.max_queue_depth();
  m.mean_queue_depth = scheduler_.MeanQueueDepth();

  if (used_compile_cache_) {
    const cache::CacheStats cs = cache::GlobalArtifactCache().stats();
    m.cache.enabled = true;
    m.cache.hits = cs.hits;
    m.cache.misses = cs.misses;
    m.cache.evictions = cs.evictions;
    m.cache.disk_hits = cs.disk_hits;
    m.cache.disk_writes = cs.disk_writes;
    m.cache.compiles = cs.compiles;
    m.cache.entries = cs.entries;
    m.cache.bytes = cs.bytes;
    m.cache.miss_cost_ns = cs.miss_cost_ns;
    m.cache.saved_ns = cs.saved_ns;
    m.cache_by_kind = kind_cache_;
  }

  const double makespan_us = scheduler_.makespan_us();
  const auto& busy = scheduler_.soc_busy_us();
  const auto& health = scheduler_.soc_health();
  for (int s = 0; s < options_.fleet_size; ++s) {
    const SocCounters& counters = soc_counters_[static_cast<size_t>(s)];
    SocStats stats;
    stats.soc = s;
    stats.kind = scheduler_.soc_kinds()[static_cast<size_t>(s)];
    stats.inferences = counters.inferences.load();
    stats.simulated_cycles = counters.cycles.load();
    stats.busy_us = busy[static_cast<size_t>(s)];
    stats.utilization = makespan_us > 0 ? stats.busy_us / makespan_us : 0.0;
    stats.health = SocHealthName(health[static_cast<size_t>(s)].health);
    stats.failures = health[static_cast<size_t>(s)].failures;
    m.socs.push_back(stats);
  }
  return m;
}

void InferenceServer::WorkerLoop() {
  const bool chaos = options_.chaos.enabled;
  while (auto batch = exec_queue_.Pop()) {
    const ModelEntry& model_entry = models_[static_cast<size_t>(batch->model)];
    // Replay the failed attempts the scheduler logged: each one drives
    // Executor::Run with the attempt's simulated (soc, window) so the
    // runtime consults the same fault plan and fails with the same typed
    // Unavailable status the fleet retried on. An attempt that does NOT
    // fail here would mean the scheduler and the runtime disagree about
    // the plan — counted as an execution failure so tests catch it.
    for (const BatchAttempt& attempt : batch->failed_attempts) {
      const runtime::RunContext ctx{&faults_, attempt.soc, attempt.start_us,
                                    attempt.end_us};
      const KindExecution& ke = ExecutionFor(model_entry, attempt.soc);
      auto injected = ke.executor->Run(model_entry.inputs, &ctx);
      if (injected.ok() ||
          injected.status().code() != StatusCode::kUnavailable) {
        HTVM_ELOG << "serve: injected fault on soc " << attempt.soc
                  << " did not surface as UNAVAILABLE";
        exec_failures_.fetch_add(1);
      } else {
        fault_hits_.fetch_add(1);
      }
    }
    const runtime::RunContext final_ctx{&faults_, batch->soc, batch->start_us,
                                        batch->done_us};
    SocCounters& counters = soc_counters_[static_cast<size_t>(batch->soc)];
    const KindExecution& final_ke = ExecutionFor(model_entry, batch->soc);
    for (size_t i = 0; i < batch->requests.size(); ++i) {
      auto result = final_ke.executor->Run(model_entry.inputs,
                                           chaos ? &final_ctx : nullptr);
      if (!result.ok()) {
        HTVM_ELOG << "serve: execution failed on soc " << batch->soc << ": "
                  << result.status().ToString();
        exec_failures_.fetch_add(1);
        continue;
      }
      if (options_.verify_outputs) {
        bool match = result->outputs.size() == final_ke.reference.size();
        for (size_t o = 0; match && o < final_ke.reference.size(); ++o) {
          match = result->outputs[o].SameAs(final_ke.reference[o]);
        }
        if (!match) output_mismatches_.fetch_add(1);
      }
      counters.inferences.fetch_add(1);
      counters.cycles.fetch_add(final_ke.artifact->TotalFullCycles());
      served_.fetch_add(1);
    }
  }
}

}  // namespace htvm::serve
