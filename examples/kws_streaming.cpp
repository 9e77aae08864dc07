// Always-on keyword spotting: the end-to-end TinyML scenario the paper's
// introduction motivates (near-sensor processing under latency and energy
// budgets). Streams MFCC frames through DS-CNN on three DIANA
// configurations and reports the real-time margin and battery-life
// implications of each.
//
//   $ ./examples/kws_streaming [num_frames]
#include <cstdio>
#include <cstdlib>

#include "compiler/pipeline.hpp"
#include "models/mlperf_tiny.hpp"
#include "runtime/energy.hpp"
#include "runtime/executor.hpp"

using namespace htvm;

int main(int argc, char** argv) {
  const int frames = argc > 1 ? std::atoi(argv[1]) : 16;
  // KWS runs on 1 s windows with 0.5 s hop: one inference every 500 ms.
  const double frame_period_ms = 500.0;

  struct Config {
    const char* name;
    models::PrecisionPolicy policy;
    compiler::CompileOptions options;
  };
  const Config configs[] = {
      {"cpu-only (plain TVM)", models::PrecisionPolicy::kInt8,
       compiler::CompileOptions::PlainTvm()},
      {"digital accelerator", models::PrecisionPolicy::kInt8,
       compiler::CompileOptions::DigitalOnly()},
      {"mixed (both accelerators)", models::PrecisionPolicy::kMixed,
       compiler::CompileOptions{}},
  };

  std::printf("DS-CNN keyword spotting, %d frames at one inference per %.0f "
              "ms:\n\n",
              frames, frame_period_ms);
  for (const Config& cfg : configs) {
    Graph net = models::BuildDsCnn(cfg.policy);
    auto artifact = compiler::HtvmCompiler{cfg.options}.Compile(net);
    if (!artifact.ok()) {
      std::printf("%-28s compile failed: %s\n", cfg.name,
                  artifact.status().ToString().c_str());
      continue;
    }
    runtime::Executor executor(&*artifact);
    Rng rng(42);
    int detections = 0;
    double total_ms = 0.0;
    for (int f = 0; f < frames; ++f) {
      const Tensor mfcc =
          Tensor::Random(Shape{1, 1, 49, 10}, DType::kInt8, rng);
      auto result = executor.Run(std::vector<Tensor>{mfcc});
      if (!result.ok()) {
        std::printf("%-28s frame %d failed: %s\n", cfg.name, f,
                    result.status().ToString().c_str());
        break;
      }
      total_ms += artifact->LatencyMs();
      // "Detection": argmax over the 12 keyword scores.
      const Tensor& scores = result->outputs[0];
      i64 best = 0;
      for (i64 k = 1; k < scores.NumElements(); ++k) {
        if (scores.GetFlat(k) > scores.GetFlat(best)) best = k;
      }
      detections += best != 0;
    }
    const double per_frame = total_ms / frames;
    const auto energy = runtime::EstimateEnergy(*artifact);
    const double duty = per_frame / frame_period_ms;
    std::printf(
        "%-28s %7.2f ms/frame  duty %5.1f%%  %8.1f uJ/frame  (%d argmax "
        "hits)\n",
        cfg.name, per_frame, 100.0 * duty, energy.TotalUj(), detections);
  }
  std::printf(
      "\nduty = compute time / frame period: the headroom the accelerators "
      "buy for\nsleep states or bigger models — the paper's Sec. I energy "
      "motivation.\n");
  return 0;
}
