// `serve`: sessions of one InferenceServer on a 4-SoC mixed fleet
// (diana:2, diana-pe32:1, diana-noanalog:1) with 4 workers, max_batch 4 and
// verify_outputs on. Each session registers the five registry models
// through the graph overload (so through the process-wide ArtifactCache:
// misses in setup, hits afterwards), starts, submits an open-loop
// PoissonTrace on the simulated clock as fast as the workers take it, and
// drains.
//
// The traffic of session i is the same in every run, so the simulated
// metrics are exact; --seed draws the request input tensors of each
// session (RegisterModel's input_seed), which the workers verify against a
// single-threaded reference run.
#include <memory>

#include "cache/artifact_cache.hpp"
#include "hw/soc.hpp"
#include "runtime/executor.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "support/string_utils.hpp"
#include "vm/vm_executor.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const std::vector<std::string> kFleet = {"diana", "diana", "diana-pe32",
                                         "diana-noanalog"};
const std::vector<std::string> kKinds = {"diana", "diana-pe32",
                                         "diana-noanalog"};
// Simulated arrival rate: enough that the fleet batches and queues while
// admission control rejects only a few requests.
constexpr double kQps = 2800;
constexpr u64 kTrafficSeed = 0x5E55105;
// Requests per session; a session takes about two host seconds on 4 cores.
constexpr size_t kRequests = 240;
constexpr size_t kWarmupRequests = 40;
// sim_p99_us is the median of the first sessions' p99s; the timed loop
// always runs at least this many sessions.
constexpr size_t kSimSessions = 5;

struct SessionResult {
  double register_ms = 0;
  double submit_ms = 0;
  double drain_ms = 0;
  double wall_ms = 0;  // Start .. end of Drain
  std::vector<i64> admitted_per_model;
  serve::ServingMetrics metrics;
};

serve::ServerOptions FleetOptions(const Settings& s) {
  serve::ServerOptions o;
  o.fleet_size = static_cast<int>(kFleet.size());
  o.soc_kinds = kFleet;
  o.worker_threads = s.serve_workers;
  o.max_batch = 4;
  o.verify_outputs = true;
  return o;
}

// Poisson arrivals cut to exactly `requests`, with the models dealt from a
// shuffled balanced deck: every model gets the same share of each session.
std::vector<serve::TraceEvent> SessionTrace(u64 seed, size_t requests,
                                            int models) {
  auto trace = serve::PoissonTrace(
      kQps, 2.0 * static_cast<double>(requests) / kQps, seed, models);
  HTVM_CHECK_MSG(trace.size() >= requests, "trace horizon too short");
  trace.resize(requests);
  std::vector<int> deck(requests);
  for (size_t i = 0; i < requests; ++i) deck[i] = static_cast<int>(i % models);
  Shuffle(&deck, MixSeed(seed, 1));
  for (size_t i = 0; i < requests; ++i) trace[i].model = deck[i];
  return trace;
}

std::optional<SessionResult> RunSession(
    const Settings& s, const std::vector<BuiltModel>& built,
    const compiler::CompileOptions& options,
    const std::vector<serve::TraceEvent>& trace, u64 input_seed,
    Outcome* out) {
  SessionResult r;
  serve::InferenceServer server(FleetOptions(s));
  std::vector<int> handles;
  Span reg("serve", "RegisterModel x" + std::to_string(built.size()));
  for (const BuiltModel& m : built) {
    out->Attempt();
    Span one("serve", "RegisterModel " + m.name);
    auto h = server.RegisterModel(m.name, m.graph, options, input_seed);
    if (!h.ok()) {
      out->Fail("serve: register " + m.name + ": " + h.status().ToString());
      return std::nullopt;
    }
    handles.push_back(*h);
  }
  r.register_ms = reg.Stop();

  r.admitted_per_model.assign(built.size(), 0);
  const Clock::time_point start = Clock::now();
  {
    Span span("serve", "Start");
    server.Start();
  }
  for (const serve::TraceEvent& ev : trace) {
    out->Attempt();
    Span submit("serve", "Submit");
    const Status st =
        server.Submit(handles[static_cast<size_t>(ev.model)], ev.arrival_us);
    r.submit_ms += submit.Stop();
    if (st.ok()) {
      ++r.admitted_per_model[static_cast<size_t>(ev.model)];
    } else if (st.code() != StatusCode::kResourceExhausted) {
      out->Fail("serve: submit: " + st.ToString());
    }
  }
  Span drain("serve", "Drain");
  r.metrics = server.Drain(trace.empty() ? 0.0 : trace.back().arrival_us / 1e6);
  r.drain_ms = drain.Stop();
  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  const serve::ServingMetrics& m = r.metrics;
  for (i64 i = 0; i < m.exec_failures; ++i) out->Fail("serve: exec failure");
  for (i64 i = 0; i < m.output_mismatches; ++i) {
    out->Fail("serve: worker output differs from the reference run");
  }
  if (m.served != m.admitted) {
    out->Fail(StrFormat("serve: served %lld of %lld admitted",
                        static_cast<long long>(m.served),
                        static_cast<long long>(m.admitted)));
  }
  return r;
}

// The traced run's single-thread figures: each model's Executor::Run time
// averaged over the fleet kinds (the base of serve.parallel_eff), and the
// replay split of the diana artifacts.
std::vector<double> SingleThreadMs(const std::vector<BuiltModel>& built,
                                   const std::vector<compiler::Artifact>& arts,
                                   LayerReport* layers, Outcome* out) {
  constexpr int kReps = 3;
  std::vector<double> per_model(built.size(), 0);
  for (int rep = 0; rep < kReps; ++rep) {
    ReplayTotals pass;
    double real_pass = 0;
    for (size_t m = 0; m < built.size(); ++m) {
      for (size_t k = 0; k < kKinds.size(); ++k) {
        const compiler::Artifact& art = arts[m * kKinds.size() + k];
        const runtime::Executor exec(&art);
        const auto inputs = vm::SyntheticInputs(art, MixSeed(0x5EED, m));
        out->Attempt();
        Span run("runtime", "Executor::Run " + built[m].name);
        auto result = exec.Run(inputs);
        const double ms = run.Stop();
        if (!result.ok()) {
          out->Fail("serve: " + built[m].name + ": " +
                    result.status().ToString());
          continue;
        }
        per_model[m] += ms / (kReps * static_cast<double>(kKinds.size()));
        if (k != 0) continue;
        layers->interp_ms[built[m].name].push_back(ms);
        real_pass += ms;
        out->Attempt();
        auto replayed = ReplayRun(art, inputs, false, &pass);
        if (!replayed.ok() || !SameTensors(*replayed, result->outputs)) {
          out->Fail("serve: replay of " + built[m].name +
                    " differs from Executor::Run");
        }
      }
    }
    layers->real_interp_pass_ms.push_back(real_pass);
    layers->replay_interp_pass_ms.push_back(pass.total_ms);
    layers->interp_passes.push_back(pass);
  }
  return per_model;
}

// What set-up leaves for the sessions: the models, the deployed artifacts
// and the (graph, options) pairs they are cached under.
struct Fleet {
  std::vector<BuiltModel> built;
  std::vector<compiler::Artifact> arts;  // model-major, kKinds order
  std::vector<std::pair<const Graph*, compiler::CompileOptions>> keyed;
};

// From an empty cache: builds the models, runs a warm-up session (whose
// registrations compile every (model, kind) into the cache), and fetches
// the deployed artifacts back from the cache.
bool SetUp(const Settings& s, const compiler::CompileOptions& options,
           Fleet* fleet, LayerReport* layers, Outcome* out) {
  cache::ArtifactCache& cache = cache::GlobalArtifactCache();
  cache.Reset();
  *fleet = Fleet{};
  fleet->built = BuildModels(models::PrecisionPolicy::kMixed, layers, out);
  if (out->failed() > 0) return false;
  if (!RunSession(s, fleet->built, options,
                  SessionTrace(MixSeed(kTrafficSeed, ~0ull), kWarmupRequests,
                               static_cast<int>(fleet->built.size())),
                  MixSeed(s.seed, ~0ull), out)) {
    return false;
  }
  for (const BuiltModel& m : fleet->built) {
    for (const std::string& kind : kKinds) {
      compiler::CompileOptions o = options;
      o.soc = *hw::FindSoc(kind);
      o.cache = &cache;
      out->Attempt();
      auto art = compiler::HtvmCompiler{o}.Compile(m.graph);
      if (!art.ok()) {
        out->Fail("serve: compile " + m.name + ": " + art.status().ToString());
        return false;
      }
      layers->passes.Add(*art, 0);
      fleet->arts.push_back(std::move(*art));
      fleet->keyed.emplace_back(&m.graph, o);
    }
  }
  return true;
}

}  // namespace

void RunServe(const Settings& s, EndToEnd* e2e, LayerReport* layers,
              Outcome* out) {
  const compiler::CompileOptions options =
      PinnedOptions(s, ConfigByName("mixed"), "diana",
                    dory::ScheduleSearchKind::kHeuristic);
  Fleet fleet;
  e2e->setup_s =
      TimeSetups([&] { return SetUp(s, options, &fleet, layers, out); });
  if (out->failed() > 0) return;
  const std::vector<BuiltModel>& built = fleet.built;
  const int num_models = static_cast<int>(built.size());
  for (const compiler::Artifact& art : fleet.arts) {
    e2e->sim_cycles += static_cast<double>(art.TotalFullCycles());
    e2e->binary_kb += static_cast<double>(art.size.Total()) / 1024.0;
  }
  std::vector<double> single_ms;
  if (s.trace) single_ms = SingleThreadMs(built, fleet.arts, layers, out);
  if (out->failed() > 0) return;

  cache::ArtifactCache& cache = cache::GlobalArtifactCache();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(s.seconds));
  std::vector<double> sim_p99;
  for (u64 session = 0;
       Clock::now() < deadline || sim_p99.size() < kSimSessions; ++session) {
    const auto trace =
        SessionTrace(MixSeed(kTrafficSeed, session), kRequests, num_models);
    if (s.trace) {
      for (auto& [graph, o] : fleet.keyed) {
        Span key("cache", "ArtifactCache::Key");
        (void)cache.Key(*graph, o);
        layers->key_ms.push_back(key.Stop());
      }
    }
    const cache::CacheStats before = cache.stats();
    auto r = RunSession(s, built, options, trace, MixSeed(s.seed, session),
                        out);
    if (!r) return;
    const cache::CacheStats after = cache.stats();
    const serve::ServingMetrics& m = r->metrics;
    if (sim_p99.size() < kSimSessions) sim_p99.push_back(m.latency_p99_us);
    e2e->op_ms.push_back(r->wall_ms / static_cast<double>(m.served));
    e2e->items += static_cast<double>(m.served);
    e2e->items_wall_s += r->wall_ms / 1000.0;
    if (!s.trace) continue;
    layers->cache_hits.push_back(static_cast<double>(after.hits - before.hits));
    layers->cache_misses.push_back(
        static_cast<double>(after.misses - before.misses));
    layers->register_ms.push_back(r->register_ms);
    layers->submit_ms.push_back(r->submit_ms);
    layers->drain_ms.push_back(r->drain_ms);
    layers->served.push_back(static_cast<double>(m.served));
    layers->batches.push_back(static_cast<double>(m.batches));
    layers->rejected.push_back(static_cast<double>(m.rejected));
    double useful_ms = 0;
    for (size_t i = 0; i < built.size(); ++i) {
      useful_ms += static_cast<double>(r->admitted_per_model[i]) * single_ms[i];
    }
    layers->parallel_eff.push_back(
        useful_ms / (s.serve_workers * r->wall_ms));
  }
  e2e->sim_p99_us = Median(sim_p99);
}

}  // namespace perfbench
