// Deploying a custom mixed-precision network: shows how weight precision
// drives the accelerator-aware dispatcher (int8 -> digital, ternary ->
// analog, unsupported -> CPU) and how to inspect the partitioning the
// compiler chose — the paper's Sec. III-A flow from a user's perspective.
//
//   $ ./examples/custom_network
#include <cstdio>

#include "compiler/pipeline.hpp"
#include "ir/builder.hpp"
#include "runtime/executor.hpp"

using namespace htvm;

int main() {
  // A residual block with deliberately mixed precision:
  //   conv1  int8     -> digital accelerator
  //   conv2  ternary  -> analog accelerator
  //   dwconv int8     -> digital (analog cannot run depthwise)
  //   softmax         -> CPU (neither accelerator supports it)
  GraphBuilder b(/*seed=*/99);
  NodeId x = b.Input("in", Shape{1, 32, 24, 24});

  ConvSpec conv1;
  conv1.out_channels = 32;
  conv1.weight_dtype = DType::kInt8;
  conv1 = WithSamePadding(conv1, 24, 24);
  NodeId y = b.ConvBlock(x, conv1, "conv1");

  ConvSpec conv2;
  conv2.out_channels = 32;
  conv2.weight_dtype = DType::kTernary;  // routes to the analog IMC macro
  conv2.relu = false;
  conv2 = WithSamePadding(conv2, 24, 24);
  y = b.ConvBlock(y, conv2, "conv2");

  NodeId res = b.AddBlock(x, y, /*relu=*/true, /*shift=*/1);

  ConvSpec dw;
  dw.depthwise = true;
  dw.weight_dtype = DType::kInt8;
  dw = WithSamePadding(dw, 24, 24);
  res = b.ConvBlock(res, dw, "dw");

  res = b.GlobalAvgPool(res);
  res = b.Flatten(res);
  res = b.DenseBlock(res, 10, /*relu=*/false, 6, DType::kInt8, "fc");
  res = b.Softmax(res);
  Graph net = b.Finish(res);

  auto artifact =
      compiler::HtvmCompiler{compiler::CompileOptions{}}.Compile(net);
  if (!artifact.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }

  std::printf("dispatch decisions:\n");
  for (const auto& k : artifact->kernels) {
    std::printf("  %-20s -> %s\n", k.name.c_str(), k.target.c_str());
  }
  std::printf("\ndispatch rationale (compile-time report):\n");
  for (const auto& d : artifact->dispatch_log) {
    std::printf("  %-14s %-36s -> %-8s %s\n", d.pattern.c_str(),
                d.layer.c_str(), d.target.c_str(), d.reason.c_str());
  }

  Rng rng(1);
  const Tensor input = Tensor::Random(Shape{1, 32, 24, 24}, DType::kInt8, rng);
  runtime::Executor executor(&*artifact);
  auto result = executor.Run(std::vector<Tensor>{input});
  HTVM_CHECK(result.ok());
  const hw::RunProfile profile = artifact->Profile();
  std::printf("\nlatency %.3f ms; per-target cycles: cpu=%lld digital=%lld "
              "analog=%lld\n",
              artifact->LatencyMs(),
              static_cast<long long>(profile.FullCyclesOn("cpu")),
              static_cast<long long>(profile.FullCyclesOn("digital")),
              static_cast<long long>(profile.FullCyclesOn("analog")));

  // Re-compile with the analog core disabled: the ternary conv has nowhere
  // to go but the CPU path.
  auto digital_only = compiler::HtvmCompiler{
      compiler::CompileOptions::DigitalOnly()}.Compile(net);
  HTVM_CHECK(digital_only.ok());
  std::printf("\nwith the analog core disabled:\n");
  for (const auto& k : digital_only->kernels) {
    std::printf("  %-20s -> %s\n", k.name.c_str(), k.target.c_str());
  }
  return 0;
}
