#include "cache/cache_key.hpp"

namespace htvm::cache {
namespace {

// v2: SoC identity (name, accelerator presence, CPU SIMD class) joined the
// fingerprint. The geometry (the DianaConfig walk) was always hashed, but two
// registered SoCs with identical geometry would previously collide on one
// entry — and a wrong-SoC artifact would be served as a hit.
// v3: schedule-search options joined (kind + per-strategy knobs) — a
// cost-guided-search artifact carries different tile schedules than the
// heuristic one, so the two must never cross-hit.
// v4: graph-level search joined (plan-finalist knob; the kind enum grew
// graph-level kinds) — a graph-planned artifact carries a
// different partitioning (fusions, dispatch flips) than a tile-only-tuned
// one, and the searched GraphPlan is memoized next to the TileSolutions.
// v5: the hashed search fields shrank to the kind alone (the search knobs
// became constants; only heuristic and graph-beam remain).
constexpr u64 kOptionsFingerprintVersion = 5;

// Feeds a record's field walk (hw::VisitFields, dory::VisitFields) into
// the hasher.
struct HashFields {
  ir::Hasher& h;
  void I64(i64 v) { h.Add(v); }
  void F64(double v) { h.AddDouble(v); }
  void Bool(bool v) { h.Add(v); }
};

void HashScheduleSearch(ir::Hasher& h, const dory::ScheduleSearchOptions& s) {
  h.Add(static_cast<i64>(s.kind));
  // eval_lanes is absent for the same reason compile_threads is: the
  // evaluation fan-out never changes which schedule wins (deterministic
  // argmin over a fixed finalist list).
}

void HashSizeModel(ir::Hasher& h, const tvmgen::SizeModelConfig& s) {
  h.Add(s.tvm_runtime_bytes)
      .Add(s.htvm_runtime_bytes)
      .Add(s.cpu_conv_code)
      .Add(s.cpu_dwconv_code)
      .Add(s.cpu_dense_code)
      .Add(s.cpu_pool_code)
      .Add(s.cpu_softmax_code)
      .Add(s.cpu_elemwise_code)
      .Add(s.cpu_fused_epilogue_code)
      .Add(s.accel_kernel_code)
      .Add(s.accel_tile_loop_code)
      .AddDouble(s.tuned_kernel_code_factor);
}

}  // namespace

ir::Hash128 OptionsFingerprint(const compiler::CompileOptions& options) {
  ir::Hasher h(/*seed=*/0x6f707473ull);  // "opts"
  h.Add(kOptionsFingerprintVersion);
  h.Add(options.dispatch.enable_digital)
      .Add(options.dispatch.enable_analog)
      .Add(options.dispatch.enable_tuned_cpu_library)
      .Add(options.plain_tvm);
  HashFields fields{h};
  VisitFields(fields, options.tiler);
  HashScheduleSearch(h, options.schedule_search);
  HashSizeModel(h, options.size_model);
  // SoC identity first (name + presence flags + SIMD class), then the full
  // geometry/cost model. Identity alone distinguishes same-geometry twins;
  // geometry alone distinguishes a re-registered name with new parameters.
  h.AddString(options.soc.name)
      .Add(options.soc.has_digital)
      .Add(options.soc.has_analog)
      .Add(static_cast<i64>(options.soc.simd));
  VisitFields(fields, options.soc.config);
  // options.instrument, options.cache and options.compile_threads are
  // intentionally absent: IR dumping, validation, the cache wiring and the
  // CompileKernels lane count never change the artifact (the last is the
  // determinism contract tests/parallel_compile_test.cpp enforces), so a
  // compile at any thread count may serve a lookup from any other.
  return h.Digest();
}

CacheKey MakeCacheKey(const Graph& network,
                      const compiler::CompileOptions& options) {
  return CacheKey{ir::StructuralHash(network), OptionsFingerprint(options)};
}

}  // namespace htvm::cache
