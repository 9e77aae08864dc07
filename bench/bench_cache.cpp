// bench_cache — compile-once fleet sweep through the artifact cache.
//
// Scenario: a fleet of identical workers each registers the same model set
// (the htvm-serve startup path). Without the cache every worker pays the
// full pass pipeline; with the shared ArtifactCache the first worker
// compiles and the rest hit. Reports cold vs cached wall time, the speedup
// (docs/artifact_cache.md cites >=10x on this sweep), and proves the hit
// path is trustworthy: the cached artifact's serialized report and emitted
// C tree are byte-identical to a cold compile's.
//
//   bench_cache [--workers N] [--check]
//
// --check exits nonzero when the speedup drops below 10x or byte-identity
// breaks (used by the CI cache smoke).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "models/mlperf_tiny.hpp"
#include "vm/hab.hpp"

namespace htvm {
namespace {

struct SweepModel {
  const char* name;
  Graph network;
  compiler::CompileOptions options;
};

double SweepMs(const std::vector<SweepModel>& models, int workers,
               cache::ArtifactCache* cache) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int w = 0; w < workers; ++w) {
    for (const SweepModel& m : models) {
      compiler::CompileOptions options = m.options;
      options.cache = cache;
      auto artifact = compiler::HtvmCompiler{options}.Compile(m.network);
      HTVM_CHECK_MSG(artifact.ok(), "sweep compile failed");
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Byte-identity of the hit path: the canonical HAB bytes and emitted C
// sources of a cache hit must equal the cold compile's. Pass wall-clock
// times are measurement noise, never content — SerializeHabForDiff zeroes
// them before diffing.
bool HitIsByteIdentical(const SweepModel& m) {
  auto cold = compiler::HtvmCompiler{m.options}.Compile(m.network);
  HTVM_CHECK(cold.ok());

  cache::ArtifactCache cache;
  compiler::CompileOptions options = m.options;
  options.cache = &cache;
  auto fill = compiler::HtvmCompiler{options}.Compile(m.network);
  HTVM_CHECK(fill.ok());
  auto hit = compiler::HtvmCompiler{options}.Compile(m.network);
  HTVM_CHECK(hit.ok());
  HTVM_CHECK_MSG(cache.stats().hits == 1, "second compile did not hit");

  if (vm::SerializeHabForDiff(*hit) != vm::SerializeHabForDiff(*cold)) {
    return false;
  }
  auto cold_c = compiler::EmitArtifactC(*cold, m.name);
  auto hit_c = compiler::EmitArtifactC(*hit, m.name);
  HTVM_CHECK(cold_c.ok() && hit_c.ok());
  return cold_c->files == hit_c->files;
}

}  // namespace
}  // namespace htvm

int main(int argc, char** argv) {
  using namespace htvm;
  int workers = 32;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    }
  }
  if (workers <= 0) workers = 32;

  std::vector<SweepModel> models;
  models.push_back({"resnet", models::BuildResNet8(
                                  models::PrecisionPolicy::kMixed),
                    compiler::CompileOptions{}});
  models.push_back({"dscnn",
                    models::BuildDsCnn(models::PrecisionPolicy::kInt8),
                    compiler::CompileOptions::DigitalOnly()});

  const int total = workers * static_cast<int>(models.size());
  std::printf("bench_cache: fleet sweep, %d workers x %zu models "
              "(%d compiles)\n",
              workers, models.size(), total);

  const double cold_ms = SweepMs(models, workers, /*cache=*/nullptr);
  cache::ArtifactCache cache;
  const double warm_ms = SweepMs(models, workers, &cache);
  const cache::CacheStats stats = cache.stats();
  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;

  std::printf("  cold:   %9.2f ms (%d pipeline runs)\n", cold_ms, total);
  std::printf("  cached: %9.2f ms (%lld compiles, %lld hits, "
              "%.2f ms pipeline time saved)\n",
              warm_ms, static_cast<long long>(stats.compiles),
              static_cast<long long>(stats.hits),
              static_cast<double>(stats.saved_ns) / 1e6);
  std::printf("  speedup: %.1fx\n", speedup);

  const bool identical = HitIsByteIdentical(models[0]);
  std::printf("  hit artifact byte-identical to cold compile: %s\n",
              identical ? "yes" : "NO");

  if (check) {
    if (!identical) {
      std::fprintf(stderr, "bench_cache: byte-identity FAILED\n");
      return 1;
    }
    if (speedup < 10.0) {
      std::fprintf(stderr, "bench_cache: speedup %.1fx below 10x\n", speedup);
      return 1;
    }
  }
  return 0;
}
