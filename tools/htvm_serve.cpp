// htvm-serve — open-loop serving driver for the HTVM reproduction.
//
// Replays a synthetic Poisson arrival trace against a fleet of simulated
// DIANA SoC instances and prints the serving metrics (throughput, latency
// p50/p95/p99, queue behaviour, per-SoC utilization) as JSON. All timing is
// on the simulated clock, so the output is deterministic in the seed.
//
//   htvm-serve --model resnet --config mixed --qps 200 --fleet 4
//              --duration-s 2 --seed 7
//   htvm-serve --model resnet,dscnn --config digital --qps 500 --fleet 2
//              --batch 4 --queue-cap 32
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "cache/artifact_cache.hpp"
#include "compiler/pipeline.hpp"
#include "hw/soc.hpp"
#include "models/registry.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "support/string_utils.hpp"
#include "vm/loaded_artifact.hpp"

using namespace htvm;

namespace {

struct ServeCliOptions {
  std::vector<std::string> models;  // builtin model names
  std::string config = "mixed";
  double qps = 100.0;
  double duration_s = 1.0;
  std::vector<std::string> fleet_kinds = {"diana"};  // one entry per SoC
  serve::PlacementPolicy placement = serve::PlacementPolicy::kModelAware;
  int queue_cap = 64;
  int batch = 1;
  int threads = 0;           // 0 => one per SoC
  int compile_threads = 0;   // CompileKernels lanes (0 = hw concurrency)
  u64 seed = 7;
  std::string schedule_search;  // tile-schedule search strategy name
  std::string cache_dir;
  std::string preload_dir;  // register deployable HABs, zero compiles
  bool verify = false;
  bool help = false;
  bool chaos = false;
  double crash_frac = 0.3;
  double transient_rate = 2.0;  // windows per SoC-second
  double slow_frac = 0.25;
};

void PrintUsage() {
  std::printf(R"(htvm-serve — open-loop serving over simulated DIANA SoCs

options:
  --model <name[,name...]>   builtin MLPerf Tiny models to serve
                             (dscnn|mobilenet|resnet|toyadmos)
  --config <tvm|digital|analog|mixed>  deployment configuration
  --qps <n>                  Poisson arrival rate (requests/s)
  --duration-s <n>           trace horizon in seconds
  --fleet <spec>             simulated SoC instances: either a count of
                             default "diana" SoCs (--fleet 4) or a mixed
                             fleet of registered SoC families as
                             name:count pairs (--fleet diana:2,diana-pe32:2)
  --placement <policy>       how a dispatching request picks its SoC:
                             model-aware (default; per-kind predicted
                             latency; on one SoC kind, the earliest-free
                             SoC) or round-robin
  --queue-cap <n>            admission-control queue bound
  --batch <n>                micro-batch size (1 = off)
  --threads <n>              worker threads (default: one per SoC)
  --compile-threads <n>      CompileKernels lanes per compile on the shared
                             pool (0 = hardware concurrency, 1 = sequential);
                             with the process-wide artifact cache, parallel
                             misses overlap kernel compilation instead of
                             serializing behind one compile
  --seed <n>                 trace seed (metrics are deterministic in it)
  --schedule-search <heuristic|graph-beam>
                             schedule search for compiles (default
                             heuristic; graph-beam searches with the hw
                             cost model — pair with --cache-dir so a
                             restart loads the searched artifacts instead
                             of searching again)
  --cache-dir <dir>          persist compiled artifacts to a content-
                             addressed cache; a restarted fleet serving the
                             same models compiles nothing ("compiles": 0 in
                             the metrics JSON)
  --preload-dir <dir>        register every htvm-artifact v2 (.hab/.htvmart)
                             file in <dir> as a served model — a warm start
                             with zero compiles; combine with --model to
                             serve compiled models alongside
  --verify                   check every output against the reference run
  --chaos                    inject seeded SoC faults (crashes, transient
                             DMA/accelerator errors, latency spikes); the
                             fleet retries, re-dispatches and evicts —
                             metrics stay deterministic in --seed
  --crash-frac <f>           fraction of the fleet crashing mid-run (0.3)
  --transient-rate <hz>      transient fault windows per SoC-second (2)
  --slow-frac <f>            fraction of the fleet with a latency spike (0.25)
  --help                     this text
)");
}

// "--fleet 4" (a plain count of default "diana" SoCs) or
// "--fleet diana:2,diana-pe32:1,diana-scalar:1" (name:count pairs, each
// name a registered SocDescription). Returns one kind per fleet index.
Result<std::vector<std::string>> ParseFleetSpec(const std::string& spec) {
  if (spec.empty()) return Status::InvalidArgument("bad --fleet value");
  if (const std::optional<int> n = ParseNumber<int>(spec)) {
    if (*n <= 0) return Status::InvalidArgument("bad --fleet value");
    return std::vector<std::string>(static_cast<size_t>(*n), "diana");
  }
  std::vector<std::string> kinds;
  std::string entry;
  for (char c : spec + ",") {
    if (c != ',') {
      entry += c;
      continue;
    }
    if (entry.empty()) continue;
    std::string name = entry;
    int count = 1;
    const size_t colon = entry.find(':');
    if (colon != std::string::npos) {
      name = entry.substr(0, colon);
      const std::optional<int> n =
          ParseNumber<int>(std::string_view(entry).substr(colon + 1));
      if (!n || *n <= 0) {
        return Status::InvalidArgument("bad --fleet count in '" + entry + "'");
      }
      count = *n;
    }
    // Validate against the registry so a typo fails at parse time with the
    // list of known families instead of deep inside compilation.
    HTVM_RETURN_IF_ERROR(hw::FindSoc(name).status());
    kinds.insert(kinds.end(), static_cast<size_t>(count), name);
    entry.clear();
  }
  if (kinds.empty()) return Status::InvalidArgument("bad --fleet value");
  return kinds;
}

bool IsFraction(double f) { return f >= 0 && f <= 1; }

Result<ServeCliOptions> ParseArgs(int argc, char** argv) {
  ServeCliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(arg + " needs a value");
      }
      return std::string(argv[++i]);
    };
    // Reads the flag's value as a whole-string number into `*out` when
    // `valid` accepts it.
    const auto number = [&]<typename T>(T* out, auto valid) -> Status {
      HTVM_ASSIGN_OR_RETURN(v, value());
      const std::optional<T> n = ParseNumber<T>(v);
      if (!n || !valid(*n)) {
        return Status::InvalidArgument("bad " + arg + " value");
      }
      *out = *n;
      return Status::Ok();
    };
    if (arg == "--model") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      std::string current;
      for (char c : v + ",") {
        if (c == ',') {
          if (!current.empty()) opt.models.push_back(current);
          current.clear();
        } else {
          current += c;
        }
      }
    } else if (arg == "--config") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.config = v;
    } else if (arg == "--qps") {
      HTVM_RETURN_IF_ERROR(number(&opt.qps, [](double q) { return q > 0; }));
    } else if (arg == "--duration-s") {
      HTVM_RETURN_IF_ERROR(
          number(&opt.duration_s, [](double s) { return s > 0; }));
    } else if (arg == "--fleet") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      HTVM_ASSIGN_OR_RETURN(kinds, ParseFleetSpec(v));
      opt.fleet_kinds = kinds;
    } else if (arg == "--placement") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      if (v == "model-aware") {
        opt.placement = serve::PlacementPolicy::kModelAware;
      } else if (v == "round-robin") {
        opt.placement = serve::PlacementPolicy::kRoundRobin;
      } else {
        return Status::InvalidArgument(
            "bad --placement value '" + v +
            "' (want model-aware|round-robin)");
      }
    } else if (arg == "--queue-cap") {
      HTVM_RETURN_IF_ERROR(number(&opt.queue_cap, [](int n) { return n > 0; }));
    } else if (arg == "--batch") {
      HTVM_RETURN_IF_ERROR(number(&opt.batch, [](int n) { return n > 0; }));
    } else if (arg == "--threads") {
      HTVM_RETURN_IF_ERROR(number(&opt.threads, [](int n) { return n >= 0; }));
    } else if (arg == "--compile-threads") {
      HTVM_RETURN_IF_ERROR(
          number(&opt.compile_threads, [](int n) { return n >= 0; }));
    } else if (arg == "--seed") {
      HTVM_RETURN_IF_ERROR(number(&opt.seed, [](u64) { return true; }));
    } else if (arg == "--schedule-search") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      HTVM_RETURN_IF_ERROR(dory::ParseScheduleSearchKind(v).status());
      opt.schedule_search = v;
    } else if (arg == "--cache-dir") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.cache_dir = v;
    } else if (arg == "--preload-dir") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.preload_dir = v;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--chaos") {
      opt.chaos = true;
    } else if (arg == "--crash-frac") {
      HTVM_RETURN_IF_ERROR(number(&opt.crash_frac, IsFraction));
    } else if (arg == "--transient-rate") {
      HTVM_RETURN_IF_ERROR(
          number(&opt.transient_rate, [](double r) { return r >= 0; }));
    } else if (arg == "--slow-frac") {
      HTVM_RETURN_IF_ERROR(number(&opt.slow_frac, IsFraction));
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "htvm-serve: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const ServeCliOptions opt = *parsed;
  if (opt.help || (opt.models.empty() && opt.preload_dir.empty())) {
    PrintUsage();
    return opt.help ? 0 : 2;
  }

  const models::DeployConfig* config = models::FindDeployConfig(opt.config);
  if (config == nullptr) {
    std::fprintf(stderr, "htvm-serve: unknown --config '%s'\n",
                 opt.config.c_str());
    return 2;
  }
  compiler::CompileOptions options = config->options();
  const models::PrecisionPolicy policy = config->policy;
  options.compile_threads = opt.compile_threads;
  if (!opt.schedule_search.empty()) {
    // Validated at parse time.
    options.schedule_search.kind =
        *dory::ParseScheduleSearchKind(opt.schedule_search);
  }

  serve::ServerOptions server_options;
  server_options.fleet_size = static_cast<int>(opt.fleet_kinds.size());
  server_options.soc_kinds = opt.fleet_kinds;
  server_options.placement = opt.placement;
  server_options.queue_capacity = opt.queue_cap;
  server_options.worker_threads = opt.threads;
  server_options.max_batch = opt.batch;
  server_options.verify_outputs = opt.verify;
  if (opt.chaos) {
    server_options.chaos.enabled = true;
    server_options.chaos.seed = opt.seed;
    server_options.chaos.plan.horizon_us = opt.duration_s * 1e6;
    server_options.chaos.plan.crash_fraction = opt.crash_frac;
    server_options.chaos.plan.transient_rate_hz = opt.transient_rate;
    server_options.chaos.plan.slow_fraction = opt.slow_frac;
  }
  serve::InferenceServer server(server_options);
  if (!opt.cache_dir.empty()) {
    cache::ConfigureGlobalArtifactCache({.dir = opt.cache_dir});
  } else {
    // Still compile through the process-wide cache: duplicate models in
    // --model a,a and repeated registrations compile once per content.
    cache::ConfigureGlobalArtifactCache({});
  }

  if (!opt.preload_dir.empty()) {
    // Warm start: every deployable artifact in the directory becomes a
    // served model without touching the compiler.
    server.EnableCompileCacheMetrics();
    std::error_code ec;
    std::filesystem::directory_iterator it(opt.preload_dir, ec);
    if (ec) {
      std::fprintf(stderr, "htvm-serve: cannot read --preload-dir %s: %s\n",
                   opt.preload_dir.c_str(), ec.message().c_str());
      return 1;
    }
    // Sorted for deterministic model handles (directory order is not).
    std::vector<std::string> paths;
    for (const auto& entry : it) {
      const std::string ext = entry.path().extension().string();
      if (entry.is_regular_file() && (ext == ".hab" || ext == ".htvmart")) {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    int preloaded = 0;
    for (const std::string& path : paths) {
      auto loaded = vm::LoadedArtifact::FromFile(path);
      if (!loaded.ok()) {
        // Corrupt or version-skewed files are skipped, like a cache miss —
        // one bad artifact must not take down the warm start.
        std::fprintf(stderr, "htvm-serve: skipping %s: %s\n", path.c_str(),
                     loaded.status().ToString().c_str());
        continue;
      }
      std::string name = loaded->meta().model_name;
      if (name.empty()) {
        name = std::filesystem::path(path).stem().string();
      }
      auto handle =
          server.RegisterModel(name, loaded->shared_artifact(), opt.seed);
      if (!handle.ok()) {
        std::fprintf(stderr, "htvm-serve: %s\n",
                     handle.status().ToString().c_str());
        return 1;
      }
      preloaded += 1;
      std::fprintf(stderr,
                   "htvm-serve: %s preloaded from %s, service %.1f us/request\n",
                   name.c_str(), path.c_str(), server.ServiceUs(*handle));
    }
    if (preloaded == 0 && opt.models.empty()) {
      std::fprintf(stderr, "htvm-serve: no loadable artifacts in %s\n",
                   opt.preload_dir.c_str());
      return 1;
    }
  }

  for (const std::string& name : opt.models) {
    auto network = models::BuildByName(name, policy);
    if (!network.ok()) {
      std::fprintf(stderr, "htvm-serve: %s\n",
                   network.status().ToString().c_str());
      return 1;
    }
    auto handle = server.RegisterModel(name, *network, options, opt.seed);
    if (!handle.ok()) {
      std::fprintf(stderr, "htvm-serve: %s\n",
                   handle.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "htvm-serve: %s/%s ready, service %.1f us/request\n",
                 name.c_str(), opt.config.c_str(), server.ServiceUs(*handle));
  }
  {
    const cache::CacheStats cs = cache::GlobalArtifactCache().stats();
    std::fprintf(stderr,
                 "htvm-serve: compile cache — %lld compiles, %lld hits "
                 "(%lld from disk), %.1f ms saved\n",
                 static_cast<long long>(cs.compiles),
                 static_cast<long long>(cs.hits),
                 static_cast<long long>(cs.disk_hits),
                 static_cast<double>(cs.saved_ns) / 1e6);
  }

  if (opt.chaos) {
    std::fprintf(stderr, "htvm-serve: chaos plan: %s\n",
                 server.faults().Summary().c_str());
  }
  const auto trace = serve::PoissonTrace(opt.qps, opt.duration_s, opt.seed,
                                         server.num_models());
  server.Start();
  for (const serve::TraceEvent& event : trace) {
    // Rejections are part of the experiment; they land in the metrics.
    (void)server.Submit(event.model, event.arrival_us);
  }
  const serve::ServingMetrics metrics = server.Drain(opt.duration_s);
  std::printf("%s", metrics.ToJson().c_str());
  if (opt.chaos) {
    std::fprintf(stderr,
                 "htvm-serve: chaos seed %llu — %lld retries, %lld "
                 "re-dispatches, %lld evictions, %lld crashes, %lld lost\n",
                 static_cast<unsigned long long>(opt.seed),
                 static_cast<long long>(metrics.retries),
                 static_cast<long long>(metrics.redispatches),
                 static_cast<long long>(metrics.evictions),
                 static_cast<long long>(metrics.crashes),
                 static_cast<long long>(metrics.lost));
  }
  if (metrics.exec_failures > 0 || metrics.output_mismatches > 0 ||
      metrics.lost > 0) {
    std::fprintf(stderr, "htvm-serve: %lld failures, %lld mismatches, "
                 "%lld lost\n",
                 static_cast<long long>(metrics.exec_failures),
                 static_cast<long long>(metrics.output_mismatches),
                 static_cast<long long>(metrics.lost));
    return 1;
  }
  return 0;
}
