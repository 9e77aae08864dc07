// Deploy an MLPerf(TM) Tiny network to a chosen DIANA configuration and
// print the per-kernel profile — the workflow of the paper's Sec. IV-C.
//
//   $ ./examples/deploy_mlperf_tiny [dscnn|mobilenet|resnet|toyadmos]
//                                   [tvm|digital|analog|mixed]
#include <cstdio>
#include <cstring>

#include "compiler/pipeline.hpp"
#include "models/mlperf_tiny.hpp"
#include "models/registry.hpp"
#include "runtime/executor.hpp"
#include "runtime/timeline.hpp"
#include "support/string_utils.hpp"

using namespace htvm;

int main(int argc, char** argv) {
  const char* model_name = argc > 1 ? argv[1] : "resnet";
  const char* config_name = argc > 2 ? argv[2] : "mixed";

  Graph (*build)(models::PrecisionPolicy) = nullptr;
  Shape input_shape;
  if (!std::strcmp(model_name, "dscnn")) {
    build = &models::BuildDsCnn;
    input_shape = Shape{1, 1, 49, 10};
  } else if (!std::strcmp(model_name, "mobilenet")) {
    build = &models::BuildMobileNetV1;
    input_shape = Shape{1, 3, 96, 96};
  } else if (!std::strcmp(model_name, "resnet")) {
    build = &models::BuildResNet8;
    input_shape = Shape{1, 3, 32, 32};
  } else if (!std::strcmp(model_name, "toyadmos")) {
    build = &models::BuildToyAdmosDae;
    input_shape = Shape{1, 640};
  } else {
    std::fprintf(stderr, "unknown model '%s'\n", model_name);
    return 1;
  }

  const models::DeployConfig* config = models::FindDeployConfig(config_name);
  if (config == nullptr) {
    std::fprintf(stderr, "unknown config '%s'\n", config_name);
    return 1;
  }
  const compiler::CompileOptions options = config->options();
  const models::PrecisionPolicy policy = config->policy;

  const Graph net = build(policy);
  auto artifact = compiler::HtvmCompiler{options}.Compile(net);
  if (!artifact.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }

  std::printf("%s on DIANA (%s):\n", model_name, config_name);
  std::printf("%s", artifact->Profile().ToTable().c_str());
  std::printf("binary: %s\n", artifact->size.ToString().c_str());
  std::printf("L2: arena %s + image %s -> %s (capacity 512.0 kB)\n",
              HumanBytes(artifact->memory_plan.arena_bytes).c_str(),
              HumanBytes(artifact->size.Total()).c_str(),
              artifact->memory_plan.fits ? "fits" : "OUT OF MEMORY");

  Rng rng(3);
  const Tensor input = Tensor::Random(input_shape, DType::kInt8, rng);
  runtime::Executor executor(&*artifact);
  auto result = executor.Run(std::vector<Tensor>{input});
  if (!result.ok()) {
    std::printf("execution refused: %s\n", result.status().ToString().c_str());
    return 0;  // the OoM row of Table I behaves exactly like this
  }
  std::printf("end-to-end: %.3f ms full, %.3f ms peak\n", artifact->LatencyMs(),
              artifact->PeakLatencyMs());
  // Fig. 2: the sequential kernel timeline across the three engines.
  std::printf("\n%s", runtime::BuildTimeline(*artifact).Render(72).c_str());
  return 0;
}
