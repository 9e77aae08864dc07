// htvm-run — slim deployable-artifact runner.
//
// Executes a htvm-artifact v2 (HAB) binary produced by `htvmc
// --emit-artifact` without any compiler linked in: this binary depends only
// on the vm + runtime + hw layers (enforced by the build's link-closure
// check). The deployment story of the paper in miniature — one compile
// service emits artifacts, N stateless runner processes execute them.
//
//   htvm-run model.hab                          inference on synthetic inputs
//   htvm-run model.hab --input in.tensors       inference on supplied inputs
//   htvm-run model.hab --dump-outputs out.bin   write outputs for diffing
//   htvm-run model.hab --meta                   header / section inspection
#include <cstdio>
#include <cstring>
#include <optional>

#include "hw/soc.hpp"
#include "runtime/executor.hpp"
#include "runtime/timeline.hpp"
#include "support/string_utils.hpp"
#include "vm/loaded_artifact.hpp"
#include "vm/vm_executor.hpp"

using namespace htvm;

namespace {

struct CliOptions {
  std::string artifact_path;
  std::string input_path;     // tensor-list file; empty = synthetic inputs
  std::string dump_outputs;
  std::string soc;  // refuse artifacts built for a different SoC
  u64 input_seed = 42;
  bool meta = false;
  bool report = false;
  bool timeline = false;
  bool simulate_tiles = false;
  bool help = false;
};

void PrintUsage() {
  std::printf(R"(htvm-run — execute a deployable HTVM artifact (no compiler)

usage: htvm-run <model.hab> [options]

options:
  --input <file>          input tensors (tensor-list file); default is
                          synthetic inputs derived from --input-seed
  --input-seed <n>        seed for synthetic inputs (default 42, matching
                          htvmc --run-outputs)
  --dump-outputs <file>   write output tensors (byte-comparable with an
                          in-process htvmc --run-outputs dump)
  --simulate-tiles        drive accelerator kernels tile by tile through
                          their DORY schedule
  --soc <name>            SoC family this runner is deployed on; loading an
                          artifact compiled for a different SocDescription
                          fails instead of silently mis-executing
  --meta                  print header/section metadata and exit
  --report                per-kernel profile table
  --timeline              execution timeline
  --help                  this text
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
    if (arg == "--input") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.input_path = v;
    } else if (arg == "--input-seed") {
      HTVM_RETURN_IF_ERROR(number(&opt.input_seed, [](u64) { return true; }));
    } else if (arg == "--dump-outputs") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      opt.dump_outputs = v;
    } else if (arg == "--soc") {
      HTVM_ASSIGN_OR_RETURN(v, value());
      HTVM_RETURN_IF_ERROR(hw::FindSoc(v).status());
      opt.soc = v;
    } else if (arg == "--simulate-tiles") {
      opt.simulate_tiles = true;
    } else if (arg == "--meta") {
      opt.meta = true;
    } else if (arg == "--report") {
      opt.report = true;
    } else if (arg == "--timeline") {
      opt.timeline = true;
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (!arg.empty() && arg[0] != '-' && opt.artifact_path.empty()) {
      opt.artifact_path = arg;
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
    std::fprintf(stderr, "htvm-run: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const CliOptions opt = *parsed;
  if (opt.help || opt.artifact_path.empty()) {
    PrintUsage();
    return opt.help ? 0 : 2;
  }

  auto loaded = vm::LoadedArtifact::FromFile(opt.artifact_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "htvm-run: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  if (!opt.soc.empty() && loaded->artifact().soc_name != opt.soc) {
    const Status mismatch = Status::Unsupported(
        "artifact was compiled for SoC '" + loaded->artifact().soc_name +
        "' but this runner is deployed on '" + opt.soc + "'");
    std::fprintf(stderr, "htvm-run: %s\n", mismatch.ToString().c_str());
    return 1;
  }

  if (opt.meta) {
    std::printf("artifact: %s\n", opt.artifact_path.c_str());
    std::printf("model: %s (producer: %s)\n", loaded->meta().model_name.c_str(),
                loaded->meta().producer.c_str());
    std::printf("soc: %s\n", loaded->artifact().soc_name.c_str());
    std::printf("format: htvm-artifact v%u | %lld bytes | %s\n",
                vm::kHabVersion, static_cast<long long>(loaded->file_bytes()),
                loaded->zero_copy_source() ? "mmap" : "buffered");
    std::printf("kernels: %zu | graph nodes: %lld | arena: %lld bytes\n",
                loaded->artifact().kernels.size(),
                static_cast<long long>(loaded->artifact().kernel_graph
                                           .NumNodes()),
                static_cast<long long>(loaded->artifact().memory_plan
                                           .arena_bytes));
    std::printf("sections:\n");
    for (const vm::HabSectionInfo& s : loaded->sections()) {
      std::printf("  id %-2u  offset %-8lld  %-8lld bytes  checksum %016llx\n",
                  s.id, static_cast<long long>(s.offset),
                  static_cast<long long>(s.bytes),
                  static_cast<unsigned long long>(s.checksum));
    }
    return 0;
  }

  const compiler::Artifact& artifact = loaded->artifact();
  const runtime::Executor executor(
      loaded->artifact_ptr(),
      runtime::ExecutorOptions{.simulate_tiles = opt.simulate_tiles});

  std::vector<Tensor> inputs;
  if (!opt.input_path.empty()) {
    auto tensors = vm::LoadTensors(opt.input_path);
    if (!tensors.ok()) {
      std::fprintf(stderr, "htvm-run: %s\n",
                   tensors.status().ToString().c_str());
      return 1;
    }
    inputs = std::move(*tensors);
  } else {
    inputs = vm::SyntheticInputs(artifact, opt.input_seed);
  }

  auto result = executor.Run(inputs);
  if (!result.ok()) {
    std::fprintf(stderr, "htvm-run: run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("%s: %zu outputs | %lld cycles | %.3f ms\n",
              loaded->meta().model_name.empty()
                  ? opt.artifact_path.c_str()
                  : loaded->meta().model_name.c_str(),
              result->outputs.size(),
              static_cast<long long>(artifact.TotalFullCycles()),
              artifact.LatencyMs());

  if (opt.report) {
    std::printf("\n%s", artifact.Profile().ToTable().c_str());
  }
  if (opt.timeline) {
    std::printf("\n%s", runtime::BuildTimeline(artifact).Render().c_str());
  }
  if (!opt.dump_outputs.empty()) {
    if (auto status = vm::SaveTensors(result->outputs, opt.dump_outputs);
        !status.ok()) {
      std::fprintf(stderr, "htvm-run: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote outputs to %s\n", opt.dump_outputs.c_str());
  }
  return 0;
}
