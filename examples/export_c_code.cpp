// Exports a deployable C artifact — what the real HTVM hands to the
// XpulpV2 GCC toolchain: generated kernels (DORY tile loops + DMA + driver
// calls, fused CPU loop nests), weights in the deployed layouts, and the
// network function running the kernel sequence against the statically
// scheduled L2 arena.
//
//   $ ./examples/export_c_code [output-dir] [model] [config]
//   $ ./examples/export_c_code /tmp/resnet_deploy resnet mixed
//   $ cc -c /tmp/resnet_deploy/resnet.c   # compiles standalone
#include <cstdio>
#include <cstring>
#include <sys/stat.h>

#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "models/mlperf_tiny.hpp"
#include "models/registry.hpp"

using namespace htvm;

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "./htvm_out";
  const char* model_name = argc > 2 ? argv[2] : "resnet";
  const char* config_name = argc > 3 ? argv[3] : "mixed";

  Graph (*build)(models::PrecisionPolicy) = &models::BuildResNet8;
  if (!std::strcmp(model_name, "dscnn")) build = &models::BuildDsCnn;
  if (!std::strcmp(model_name, "mobilenet")) build = &models::BuildMobileNetV1;
  if (!std::strcmp(model_name, "toyadmos")) build = &models::BuildToyAdmosDae;

  // An unknown config name falls back to mixed.
  const models::DeployConfig* config = models::FindDeployConfig(config_name);
  if (config == nullptr) config = models::FindDeployConfig("mixed");
  const compiler::CompileOptions options = config->options();
  const models::PrecisionPolicy policy = config->policy;

  auto artifact = compiler::HtvmCompiler{options}.Compile(build(policy));
  if (!artifact.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }
  auto emitted = compiler::EmitArtifactC(*artifact, model_name);
  if (!emitted.ok()) {
    std::fprintf(stderr, "emission failed: %s\n",
                 emitted.status().ToString().c_str());
    return 1;
  }
  ::mkdir(dir.c_str(), 0755);
  if (auto status = emitted->WriteTo(dir); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu files to %s:\n", emitted->files.size(), dir.c_str());
  for (const auto& [name, contents] : emitted->files) {
    std::printf("  %-18s %zu bytes\n", name.c_str(), contents.size());
  }
  std::printf("\ncompile with: cc -c %s/%s.c\n", dir.c_str(), model_name);
  return 0;
}
