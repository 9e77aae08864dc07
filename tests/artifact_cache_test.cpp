// cache::ArtifactCache tests.
//
// Covers the tentpole guarantees of docs/artifact_cache.md: the LRU
// respects its byte budget with correct recency order, on-disk persistence
// survives a process restart (modeled as a fresh cache on the same dir),
// corrupted files (including checksum-valid ones that fail load-time
// validation) degrade to a miss and are rewritten by the next store,
// concurrent compiles through one cache are safe and compile-once, and the
// compile-once fleet sweep is at least 10x faster than compiling every
// worker cold, with a hit byte-identical to a cache-less compile (HAB and
// emitted C). The HAB round trip the cache persists with is covered in
// vm_hab_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "compiler/emit.hpp"
#include "compiler/pipeline.hpp"
#include "hab_diff.hpp"
#include "models/mlperf_tiny.hpp"
#include "vm/hab.hpp"

namespace htvm {
namespace {

namespace fs = std::filesystem;

compiler::Artifact CompileOrDie(const Graph& net,
                                const compiler::CompileOptions& opt = {}) {
  auto artifact = compiler::HtvmCompiler{opt}.Compile(net);
  HTVM_CHECK(artifact.ok());
  return std::move(*artifact);
}

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(ArtifactCache, HitReturnsStoredArtifactAndCountsStats) {
  cache::ArtifactCache cache;
  const Graph net = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  compiler::CompileOptions opt;
  opt.cache = &cache;

  auto first = compiler::HtvmCompiler{opt}.Compile(net);
  ASSERT_TRUE(first.ok());
  auto second = compiler::HtvmCompiler{opt}.Compile(net);
  ASSERT_TRUE(second.ok());

  const cache::CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.compiles, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_GT(s.bytes, 0);
  EXPECT_GT(s.miss_cost_ns, 0);
  EXPECT_GT(s.saved_ns, 0);
  // The hit is the stored artifact, not a re-compile: identical kernels,
  // identical memory plan, identical pass timeline (timings included).
  EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHab(*second),
                      vm::SerializeHab(*first));
}

TEST(ArtifactCache, DifferentOptionsMissEachOther) {
  cache::ArtifactCache cache;
  const Graph net = models::BuildDsCnn(models::PrecisionPolicy::kInt8);
  compiler::CompileOptions mixed;
  mixed.cache = &cache;
  compiler::CompileOptions digital = compiler::CompileOptions::DigitalOnly();
  digital.cache = &cache;
  ASSERT_TRUE(compiler::HtvmCompiler{mixed}.Compile(net).ok());
  ASSERT_TRUE(compiler::HtvmCompiler{digital}.Compile(net).ok());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(ArtifactCache, LruEvictsPastBudgetInRecencyOrder) {
  cache::ArtifactCache cache;
  const Graph resnet = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  const Graph dscnn = models::BuildDsCnn(models::PrecisionPolicy::kInt8);
  const Graph dae = models::BuildToyAdmosDae(models::PrecisionPolicy::kInt8);

  compiler::CompileOptions opt;
  opt.cache = &cache;
  const std::string k_resnet = cache.Key(resnet, opt);
  const std::string k_dscnn = cache.Key(dscnn, opt);
  const std::string k_dae = cache.Key(dae, opt);

  // Measure per-entry resident sizes with an unbounded cache, then set the
  // budget to hold exactly resnet + dae so adding dae must evict one entry
  // — and recency decides which.
  ASSERT_TRUE(compiler::HtvmCompiler{opt}.Compile(resnet).ok());
  const i64 resnet_bytes = cache.stats().bytes;
  ASSERT_TRUE(compiler::HtvmCompiler{opt}.Compile(dscnn).ok());
  const i64 dscnn_bytes = cache.stats().bytes - resnet_bytes;
  ASSERT_TRUE(compiler::HtvmCompiler{opt}.Compile(dae).ok());
  const i64 dae_bytes = cache.stats().bytes - resnet_bytes - dscnn_bytes;
  ASSERT_GT(dae_bytes, dscnn_bytes);  // budget below holds dae only w/o dscnn

  cache::ArtifactCacheOptions small;
  small.max_bytes = resnet_bytes + dae_bytes;
  // Reset(options) clears the cache; re-fill under the tight budget.
  cache.Reset(small);
  ASSERT_TRUE(compiler::HtvmCompiler{opt}.Compile(resnet).ok());
  ASSERT_TRUE(compiler::HtvmCompiler{opt}.Compile(dscnn).ok());
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_NE(cache.Lookup(k_resnet), nullptr);  // resnet now most-recent
  ASSERT_TRUE(compiler::HtvmCompiler{opt}.Compile(dae).ok());

  const cache::CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_LE(s.bytes, small.max_bytes);
  EXPECT_EQ(s.entries, 2);
  EXPECT_NE(cache.Lookup(k_dae), nullptr);     // newest survives
  EXPECT_NE(cache.Lookup(k_resnet), nullptr);  // recently-touched survives
  EXPECT_EQ(cache.Lookup(k_dscnn), nullptr);   // LRU victim
}

TEST(ArtifactCache, SingleOversizedEntryIsKept) {
  cache::ArtifactCacheOptions tiny;
  tiny.max_bytes = 1;  // below any artifact's footprint
  cache::ArtifactCache cache(tiny);
  const Graph net = models::BuildToyAdmosDae(models::PrecisionPolicy::kInt8);
  compiler::CompileOptions opt;
  opt.cache = &cache;
  ASSERT_TRUE(compiler::HtvmCompiler{opt}.Compile(net).ok());
  // Kept alone rather than thrashing: the next compile still hits.
  ASSERT_TRUE(compiler::HtvmCompiler{opt}.Compile(net).ok());
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(ArtifactCache, DiskPersistenceServesAFreshCache) {
  const std::string dir = FreshDir("/artifact_cache_disk");
  const Graph net = models::BuildDsCnn(models::PrecisionPolicy::kInt8);

  cache::ArtifactCacheOptions disk;
  disk.dir = dir;
  compiler::Artifact cold;
  {
    cache::ArtifactCache writer(disk);
    compiler::CompileOptions opt;
    opt.cache = &writer;
    cold = CompileOrDie(net, opt);
    EXPECT_EQ(writer.stats().disk_writes, 1);
  }
  ASSERT_FALSE(fs::is_empty(dir));

  // A fresh cache on the same dir (a restarted process) serves from disk
  // without compiling, byte-identical to the cold artifact.
  cache::ArtifactCache reader(disk);
  compiler::CompileOptions opt;
  opt.cache = &reader;
  const compiler::Artifact warm = CompileOrDie(net, opt);
  const cache::CacheStats s = reader.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.disk_hits, 1);
  EXPECT_EQ(s.compiles, 0);
  EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHab(warm),
                      vm::SerializeHab(cold));
}

TEST(ArtifactCache, CorruptedDiskEntryDegradesToMiss) {
  const std::string dir = FreshDir("/artifact_cache_corrupt");
  const Graph net = models::BuildToyAdmosDae(models::PrecisionPolicy::kInt8);
  cache::ArtifactCacheOptions disk;
  disk.dir = dir;
  {
    cache::ArtifactCache writer(disk);
    compiler::CompileOptions opt;
    opt.cache = &writer;
    CompileOrDie(net, opt);
  }
  // Clobber every persisted entry.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ofstream(entry.path()) << "htvm-artifact v1\ncorrupted";
  }
  cache::ArtifactCache reader(disk);
  compiler::CompileOptions opt;
  opt.cache = &reader;
  const compiler::Artifact artifact = CompileOrDie(net, opt);  // recompiles
  EXPECT_EQ(reader.stats().hits, 0);
  EXPECT_EQ(reader.stats().misses, 1);
  EXPECT_EQ(reader.stats().compiles, 1);
  // The unreadable file is rewritten, not trusted because it exists...
  EXPECT_EQ(reader.stats().disk_writes, 1);
  EXPECT_FALSE(artifact.kernels.empty());

  // ...so the next restart serves from disk again instead of recompiling.
  cache::ArtifactCache healed(disk);
  opt.cache = &healed;
  CompileOrDie(net, opt);
  EXPECT_EQ(healed.stats().disk_hits, 1);
  EXPECT_EQ(healed.stats().compiles, 0);
}

// A checksum-valid entry that names an unknown op is corrupt, not missing:
// the loader reports InvalidArgument, so the cache marks the entry
// unreadable and the recompile rewrites it.
TEST(ArtifactCache, UnknownOpInDiskEntryIsRepaired) {
  const std::string dir = FreshDir("/artifact_cache_unknown_op");
  const Graph net = models::BuildToyAdmosDae(models::PrecisionPolicy::kInt8);
  cache::ArtifactCacheOptions disk;
  disk.dir = dir;
  {
    cache::ArtifactCache writer(disk);
    compiler::CompileOptions opt;
    opt.cache = &writer;
    CompileOrDie(net, opt);
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const test::SectionEntry graph =
        test::FindSectionEntry(bytes, vm::HabSection::kGraph);
    ASSERT_GT(graph.bytes, 0u) << entry.path();
    const size_t at = bytes.find("nn.bias_add", graph.offset);
    ASSERT_LT(at, graph.offset + graph.bytes) << entry.path();
    bytes.replace(at, 11, "nn.bias_adx");
    test::FixChecksum(bytes, graph);
    std::ofstream(entry.path(), std::ios::binary) << bytes;
    auto parsed = vm::ParseHab(std::span<const u8>(
        reinterpret_cast<const u8*>(bytes.data()), bytes.size()));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << parsed.status().ToString();
  }
  cache::ArtifactCache reader(disk);
  compiler::CompileOptions opt;
  opt.cache = &reader;
  CompileOrDie(net, opt);  // recompiles
  EXPECT_EQ(reader.stats().hits, 0);
  EXPECT_EQ(reader.stats().compiles, 1);
  EXPECT_EQ(reader.stats().disk_writes, 1);

  cache::ArtifactCache healed(disk);
  opt.cache = &healed;
  CompileOrDie(net, opt);
  EXPECT_EQ(healed.stats().disk_hits, 1);
  EXPECT_EQ(healed.stats().compiles, 0);
}

TEST(ArtifactCache, ConcurrentCompilesAreSafeAndEqual) {
  // The fleet-startup race: N workers register the same model through one
  // shared cache. All artifacts must be equal; at least one thread
  // compiles, and every lookup resolves to a hit or a miss (no lost
  // updates, no crashes under TSan/ASan).
  cache::ArtifactCache cache;
  const Graph net = models::BuildDsCnn(models::PrecisionPolicy::kInt8);
  constexpr int kThreads = 8;

  // Threads racing on the initial miss each run their own pipeline, so
  // pass wall-clock differs between their artifacts: compare the canonical
  // form, which zeroes it (timings are measurement, not content).
  std::vector<std::string> serialized(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      compiler::CompileOptions opt;
      opt.cache = &cache;
      auto artifact = compiler::HtvmCompiler{opt}.Compile(net);
      HTVM_CHECK(artifact.ok());
      serialized[t] = vm::SerializeHabForDiff(*artifact);
    });
  }
  for (std::thread& t : threads) t.join();

  const cache::CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads);
  EXPECT_GE(s.compiles, 1);
  EXPECT_EQ(s.entries, 1);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_PRED_FORMAT2(test::HabBytesEq, serialized[t], serialized[0])
        << "thread " << t;
  }
}

// The htvm-serve startup path: a fleet of identical workers each registers
// the same model set. Without the cache every worker runs the full pass
// pipeline; through one shared cache the first worker compiles and the rest
// hit. Each side is timed as the best of three sweeps, so one scheduler
// stall in a few-millisecond warm sweep cannot fail the ratio.
TEST(ArtifactCache, FleetSweepCompilesOnceAndIsTenTimesFaster) {
  constexpr int kWorkers = 32;
  struct SweepModel {
    Graph network;
    compiler::CompileOptions options;
  };
  const SweepModel fleet[] = {
      {models::BuildResNet8(models::PrecisionPolicy::kMixed),
       compiler::CompileOptions{}},
      {models::BuildDsCnn(models::PrecisionPolicy::kInt8),
       compiler::CompileOptions::DigitalOnly()},
  };
  const auto sweep_ms = [&](cache::ArtifactCache* cache) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int w = 0; w < kWorkers; ++w) {
      for (const SweepModel& m : fleet) {
        compiler::CompileOptions options = m.options;
        options.cache = cache;
        CompileOrDie(m.network, options);
      }
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  constexpr int kSweeps = 3;
  double cold_ms = sweep_ms(/*cache=*/nullptr);
  for (int i = 1; i < kSweeps; ++i) {
    cold_ms = std::min(cold_ms, sweep_ms(nullptr));
  }
  cache::ArtifactCache cache;
  double warm_ms = sweep_ms(&cache);
  // The first warm sweep compiles each model once; every other compile hits.
  EXPECT_EQ(cache.stats().compiles, 2);
  EXPECT_EQ(cache.stats().hits, 2 * kWorkers - 2);
  for (int i = 1; i < kSweeps; ++i) {
    warm_ms = std::min(warm_ms, sweep_ms(&cache));
  }
  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  EXPECT_GE(speedup, 10.0) << "cold " << cold_ms << " ms, cached " << warm_ms
                           << " ms";
}

// A hit must be trustworthy: its canonical HAB bytes and emitted C sources
// equal a cold, cache-less compile's. SerializeHabForDiff zeroes pass
// wall-clock times, which are measurement, not content.
TEST(ArtifactCache, HitIsByteIdenticalToColdCompile) {
  const Graph net = models::BuildResNet8(models::PrecisionPolicy::kMixed);
  const compiler::Artifact cold = CompileOrDie(net);

  cache::ArtifactCache cache;
  compiler::CompileOptions opt;
  opt.cache = &cache;
  CompileOrDie(net, opt);
  const compiler::Artifact hit = CompileOrDie(net, opt);
  ASSERT_EQ(cache.stats().hits, 1);

  EXPECT_PRED_FORMAT2(test::HabBytesEq, vm::SerializeHabForDiff(hit),
                      vm::SerializeHabForDiff(cold));
  auto cold_c = compiler::EmitArtifactC(cold, "resnet");
  auto hit_c = compiler::EmitArtifactC(hit, "resnet");
  ASSERT_TRUE(cold_c.ok()) << cold_c.status().ToString();
  ASSERT_TRUE(hit_c.ok()) << hit_c.status().ToString();
  EXPECT_EQ(hit_c->files, cold_c->files);
}

TEST(ArtifactCache, ResetClearsEntriesAndStats) {
  cache::ArtifactCache cache;
  compiler::CompileOptions opt;
  opt.cache = &cache;
  CompileOrDie(models::BuildToyAdmosDae(models::PrecisionPolicy::kInt8),
               opt);
  ASSERT_EQ(cache.stats().entries, 1);
  cache.Reset();
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
  EXPECT_EQ(cache.stats().misses, 0);
}

}  // namespace
}  // namespace htvm
