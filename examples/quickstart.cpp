// Quickstart: build a small quantized CNN, compile it with HTVM for DIANA,
// run it on the simulator, and inspect latency, binary size and the memory
// schedule.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "compiler/pipeline.hpp"
#include "ir/builder.hpp"
#include "runtime/executor.hpp"
#include "runtime/verify.hpp"

using namespace htvm;

int main() {
  // 1. Build a quantized network with the graph builder. Each ConvBlock
  //    emits the Conv2D -> BiasAdd -> right_shift -> clip -> cast [-> clip]
  //    chain the accelerator pattern matcher looks for (paper Listing 1).
  GraphBuilder b(/*seed=*/42);
  NodeId x = b.Input("image", Shape{1, 3, 32, 32});
  ConvSpec conv1;
  conv1.out_channels = 16;
  conv1 = WithSamePadding(conv1, 32, 32);
  x = b.ConvBlock(x, conv1, "conv1");
  ConvSpec conv2;
  conv2.out_channels = 32;
  conv2.stride_h = conv2.stride_w = 2;
  conv2 = WithSamePadding(conv2, 32, 32);
  x = b.ConvBlock(x, conv2, "conv2");
  x = b.GlobalAvgPool(x);
  x = b.Flatten(x);
  x = b.DenseBlock(x, 10, /*relu=*/false, /*shift=*/6, DType::kInt8, "fc");
  x = b.Softmax(x);
  Graph net = b.Finish(x);

  // 2. Compile. Default options enable both DIANA accelerators; the
  //    dispatcher routes by weight bit-width and the DORY backend plans
  //    tiling + DMA for every offloaded layer.
  compiler::HtvmCompiler compiler{compiler::CompileOptions{}};
  auto artifact = compiler.Compile(net);
  if (!artifact.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 artifact.status().ToString().c_str());
    return 1;
  }

  std::printf("kernels:\n");
  for (const auto& k : artifact->kernels) {
    std::printf("  %-20s -> %-8s (%lld tiles, %lld MACs)\n", k.name.c_str(),
                k.target.c_str(), static_cast<long long>(k.perf.tiles),
                static_cast<long long>(k.perf.macs));
  }
  std::printf("binary: %s\n", artifact->size.ToString().c_str());
  std::printf("L2 plan: arena %lld B, total %lld B, fits=%s\n",
              static_cast<long long>(artifact->memory_plan.arena_bytes),
              static_cast<long long>(artifact->memory_plan.total_l2_bytes),
              artifact->memory_plan.fits ? "yes" : "no");

  // 3. Run on the simulator.
  Rng rng(7);
  const Tensor input = Tensor::Random(Shape{1, 3, 32, 32}, DType::kInt8, rng);
  runtime::Executor executor(&*artifact);
  auto result = executor.Run(std::vector<Tensor>{input});
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("latency: %.3f ms (%lld cycles @260 MHz)\n",
              artifact->LatencyMs(),
              static_cast<long long>(artifact->TotalFullCycles()));

  // 4. Verify the deployment against the pure reference interpreter.
  auto verify =
      runtime::VerifyArtifact(*artifact, net, std::vector<Tensor>{input});
  if (verify.ok()) {
    std::printf("verification: %s (%lld/%lld elements differ)\n",
                verify->bit_exact ? "bit-exact" : "approximate",
                static_cast<long long>(verify->mismatched_elements),
                static_cast<long long>(verify->total_elements));
  }
  return 0;
}
