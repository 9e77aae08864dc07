// htvmc — command-line front end of the HTVM reproduction.
//
// Compiles a network (a built-in MLPerf Tiny model or a serialized
// .htvm graph file) for a DIANA configuration and reports/emits the
// results: per-kernel profile, timeline, energy estimate, DOT graph,
// deployable C sources.
//
//   htvmc --model resnet --config mixed --report
//   htvmc --graph net.htvm --config digital --emit-dir out/
//   htvmc --model dscnn --config analog --dot graph.dot --timeline
//   htvmc --help
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sys/stat.h>

#include "cache/artifact_cache.hpp"
#include "compiler/emit.hpp"
#include "compiler/pass_manager.hpp"
#include "compiler/pipeline.hpp"
#include "hw/soc.hpp"
#include "ir/dot.hpp"
#include "ir/serialize.hpp"
#include "models/registry.hpp"
#include "runtime/energy.hpp"
#include "runtime/executor.hpp"
#include "runtime/timeline.hpp"
#include "support/string_utils.hpp"
#include "vm/hab.hpp"
#include "vm/vm_executor.hpp"

using namespace htvm;

namespace {

struct CliOptions {
  std::string model;       // builtin model name
  std::string graph_path;  // serialized graph file
  std::string config = "mixed";
  std::string soc;  // SocDescription name; empty = default "diana"
  std::string emit_dir;
  std::string dot_path;
  std::string dump_ir_dir;
  std::string dump_ir_filter;
  std::string cache_dir;
  std::string artifact_path;  // --emit-artifact: write a deployable HAB
  std::string run_outputs;    // in-process inference, dump output tensors
  std::string schedule_search;  // tile-schedule search strategy name
  u64 input_seed = 42;
  i64 l1_kb = -1;
  int compile_threads = 0;  // 0 = hardware concurrency, 1 = sequential
  bool report = false;
  bool timeline = false;
  bool energy = false;
  bool tuned_cpu = false;
  bool print_pass_times = false;
  bool list_models = false;
  bool help = false;
};

void PrintUsage() {
  std::printf(R"(htvmc — HTVM (reproduction) compiler driver

input (one of):
  --model <name>                              built-in model from the shared
                                              registry (--list-models)
  --graph <file.htvm>                         serialized graph (ir/serialize)

options:
  --config <tvm|digital|analog|mixed>         deployment configuration
  --soc <name>                                target SoC family from the
                                              registry (default diana);
                                              artifacts record their SoC and
                                              htvm-run --soc refuses a
                                              mismatch
  --tuned-cpu                                 enable the hand-tuned CPU
                                              kernel library BYOC target
  --l1 <kB>                                   override the L1 tiling budget
  --report                                    per-kernel profile table
  --timeline                                  Fig. 2-style execution timeline
  --energy                                    energy estimate
  --dot <file.dot>                            partitioned graph as Graphviz
  --emit-dir <dir>                            write deployable C sources
  --dump-ir <dir>                             write post-pass IR dumps
                                              (<NN>_<pass>.txt + .dot)
  --dump-ir-filter <pass>                     restrict --dump-ir to the IR
                                              entering and leaving <pass>
  --cache-dir <dir>                           reuse compiled artifacts from a
                                              content-addressed cache dir
  --emit-artifact <file.hab>                  write the compiled model as a
                                              deployable htvm-artifact v2
                                              binary (run it with htvm-run)
  --run-outputs <file>                        run inference in-process on
                                              synthetic inputs and dump the
                                              output tensors (byte-comparable
                                              with htvm-run --dump-outputs)
  --input-seed <n>                            seed for synthetic inputs
                                              (default 42)
  --compile-threads <n>                       CompileKernels lanes on the
                                              shared pool (0 = hardware
                                              concurrency, 1 = sequential;
                                              artifacts are byte-identical
                                              for every value)
  --schedule-search <heuristic|graph-beam>    schedule search (default
                                              heuristic = DORY Eq. 1-5
                                              picker; graph-beam searches
                                              tile shapes, fusion pairs and
                                              dispatch with the hw cost
                                              model, match-or-beat latency)
  --print-pass-times                          per-pass compile-time breakdown
                                              (no-change passes show skipped)
  --list-models                               print the model registry
  --help                                      this text
)");
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions opt;
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
      opt.model = v;
    } else if (arg == "--graph") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.graph_path = v;
    } else if (arg == "--config") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.config = v;
    } else if (arg == "--soc") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      HTVM_RETURN_IF_ERROR(hw::FindSoc(v).status());
      opt.soc = v;
    } else if (arg == "--emit-dir") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.emit_dir = v;
    } else if (arg == "--dot") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.dot_path = v;
    } else if (arg == "--dump-ir") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.dump_ir_dir = v;
    } else if (arg == "--dump-ir-filter") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.dump_ir_filter = v;
    } else if (arg == "--cache-dir") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.cache_dir = v;
    } else if (arg == "--emit-artifact") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.artifact_path = v;
    } else if (arg == "--run-outputs") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.run_outputs = v;
    } else if (arg == "--input-seed") {
      HTVM_RETURN_IF_ERROR(number(&opt.input_seed, [](u64) { return true; }));
    } else if (arg == "--compile-threads") {
      HTVM_RETURN_IF_ERROR(
          number(&opt.compile_threads, [](int n) { return n >= 0; }));
    } else if (arg == "--schedule-search") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      HTVM_RETURN_IF_ERROR(dory::ParseScheduleSearchKind(v).status());
      opt.schedule_search = v;
    } else if (arg == "--print-pass-times") {
      opt.print_pass_times = true;
    } else if (arg == "--list-models") {
      opt.list_models = true;
    } else if (arg == "--l1") {
      HTVM_RETURN_IF_ERROR(number(&opt.l1_kb, [](i64 kb) { return kb > 0; }));
    } else if (arg == "--report") {
      opt.report = true;
    } else if (arg == "--timeline") {
      opt.timeline = true;
    } else if (arg == "--energy") {
      opt.energy = true;
    } else if (arg == "--tuned-cpu") {
      opt.tuned_cpu = true;
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  return opt;
}

Result<Graph> LoadNetwork(const CliOptions& opt,
                          models::PrecisionPolicy policy) {
  if (!opt.graph_path.empty()) {
    return LoadGraph(opt.graph_path);
  }
  return models::BuildByName(opt.model, policy);
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "htvmc: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const CliOptions opt = *parsed;
  if (opt.list_models) {
    std::printf("registered models:\n%s", models::DescribeRegistry().c_str());
    return 0;
  }
  if (opt.help || (opt.model.empty() && opt.graph_path.empty())) {
    PrintUsage();
    return opt.help ? 0 : 2;
  }

  const models::DeployConfig* config = models::FindDeployConfig(opt.config);
  if (config == nullptr) {
    std::fprintf(stderr, "htvmc: unknown --config '%s'\n",
                 opt.config.c_str());
    return 2;
  }
  compiler::CompileOptions options = config->options();
  const models::PrecisionPolicy policy = config->policy;
  if (!opt.soc.empty()) {
    // Validated at parse time; Find again to fetch the full description.
    options.soc = *hw::FindSoc(opt.soc);
  }
  options.dispatch.enable_tuned_cpu_library = opt.tuned_cpu;
  options.instrument.dump_ir_dir = opt.dump_ir_dir;
  options.instrument.dump_ir_filter = opt.dump_ir_filter;
  if (opt.l1_kb > 0) options.tiler.l1_budget_bytes = opt.l1_kb * 1024;
  options.compile_threads = opt.compile_threads;
  if (!opt.schedule_search.empty()) {
    // Validated at parse time.
    options.schedule_search.kind =
        *dory::ParseScheduleSearchKind(opt.schedule_search);
  }
  dory::ScheduleSearchStats::Global().Reset();
  if (!opt.cache_dir.empty()) {
    cache::ConfigureGlobalArtifactCache({.dir = opt.cache_dir});
    options.cache = &cache::GlobalArtifactCache();
  }

  auto network = LoadNetwork(opt, policy);
  if (!network.ok()) {
    std::fprintf(stderr, "htvmc: %s\n", network.status().ToString().c_str());
    return 1;
  }

  auto artifact = compiler::HtvmCompiler{options}.Compile(*network);
  if (!artifact.ok()) {
    std::fprintf(stderr, "htvmc: compile failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }
  if (!opt.cache_dir.empty()) {
    const cache::CacheStats cs = cache::GlobalArtifactCache().stats();
    std::printf("cache: %s (%s)\n",
                cs.hits > 0 ? "hit" : "miss", opt.cache_dir.c_str());
  }

  if (options.schedule_search.kind != dory::ScheduleSearchKind::kHeuristic) {
    const dory::ScheduleSearchStats& ss = dory::ScheduleSearchStats::Global();
    std::printf(
        "schedule-search: kind=%s evaluations=%lld (cost-model %lld, "
        "simulator %lld) layers=%lld\n",
        dory::ScheduleSearchKindName(options.schedule_search.kind),
        static_cast<long long>(ss.TotalEvals()),
        static_cast<long long>(ss.cost_model_evals()),
        static_cast<long long>(ss.simulator_evals()),
        static_cast<long long>(ss.layers_searched()));
  }
  if (!artifact->plan.empty()) {
    std::printf("graph-plan: units=%zu fused=%lld cpu=%lld\n",
                artifact->plan.decisions.size(),
                static_cast<long long>(artifact->plan.FusedPairs()),
                static_cast<long long>(artifact->plan.CpuDecisions()));
  }

  std::printf("%zu kernels | %.3f ms full (%.3f ms peak) | %s | L2 %s\n",
              artifact->kernels.size(), artifact->LatencyMs(),
              artifact->PeakLatencyMs(), artifact->size.ToString().c_str(),
              artifact->memory_plan.fits ? "fits" : "OUT OF MEMORY");
  if (!opt.soc.empty()) {
    std::printf("soc: %s\n", artifact->soc_name.c_str());
  }

  if (!opt.artifact_path.empty()) {
    vm::HabMeta meta;
    meta.model_name = opt.model.empty() ? opt.graph_path : opt.model;
    meta.producer = "htvmc";
    if (auto status = vm::SaveHab(*artifact, meta, opt.artifact_path);
        !status.ok()) {
      std::fprintf(stderr, "htvmc: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote artifact %s\n", opt.artifact_path.c_str());
  }
  if (!opt.run_outputs.empty()) {
    const std::vector<Tensor> inputs =
        vm::SyntheticInputs(*artifact, opt.input_seed);
    const runtime::Executor executor(&*artifact);
    auto result = executor.Run(inputs);
    if (!result.ok()) {
      std::fprintf(stderr, "htvmc: run failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    if (auto status = vm::SaveTensors(result->outputs, opt.run_outputs);
        !status.ok()) {
      std::fprintf(stderr, "htvmc: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("ran %zu outputs (seed %llu) -> %s\n",
                result->outputs.size(),
                static_cast<unsigned long long>(opt.input_seed),
                opt.run_outputs.c_str());
  }
  if (!opt.dump_ir_dir.empty()) {
    std::printf("dumped per-pass IR to %s\n", opt.dump_ir_dir.c_str());
  }
  if (opt.print_pass_times) {
    std::printf("\npass timeline:\n%s",
                compiler::PassTimelineToTable(artifact->pass_timeline).c_str());
  }
  if (opt.report) {
    std::printf("\n%s", artifact->Profile().ToTable().c_str());
    if (!artifact->dispatch_log.empty()) {
      std::printf("\ndispatch decisions:\n");
      for (const auto& d : artifact->dispatch_log) {
        std::printf("  %-14s %-38s -> %-8s %s\n", d.pattern.c_str(),
                    d.layer.c_str(), d.target.c_str(), d.reason.c_str());
      }
    }
  }
  if (opt.timeline) {
    std::printf("\n%s", runtime::BuildTimeline(*artifact).Render().c_str());
  }
  if (opt.energy) {
    const auto energy = runtime::EstimateEnergy(*artifact);
    std::printf("\n%s\n", energy.ToString().c_str());
    std::printf("effective efficiency: %.2f TOPS/W\n",
                energy.TopsPerWatt(artifact->Profile().TotalMacs()));
  }
  if (!opt.dot_path.empty()) {
    std::ofstream out(opt.dot_path);
    out << GraphToDot(artifact->kernel_graph);
    std::printf("wrote %s\n", opt.dot_path.c_str());
  }
  if (!opt.emit_dir.empty()) {
    auto emitted = compiler::EmitArtifactC(
        *artifact, opt.model.empty() ? "network" : opt.model);
    if (!emitted.ok()) {
      std::fprintf(stderr, "htvmc: emission failed: %s\n",
                   emitted.status().ToString().c_str());
      return 1;
    }
    ::mkdir(opt.emit_dir.c_str(), 0755);
    if (auto status = emitted->WriteTo(opt.emit_dir); !status.ok()) {
      std::fprintf(stderr, "htvmc: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("emitted %zu files to %s\n", emitted->files.size(),
                opt.emit_dir.c_str());
  }
  return 0;
}
