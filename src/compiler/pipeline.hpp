// The HTVM compilation pipeline (Fig. 1 of the paper):
//
//   quantized graph -> [constant folding] -> [accelerator-aware pattern
//   matching + dispatch] -> BYOC DORY backend for matched composites /
//   TVM-native fused CPU kernels for the rest -> single sequential kernel
//   program + L2 memory schedule + binary image.
//
// Everything runs ahead of time; no autotuning. The stages are registered
// as named, timed, verified passes on a PassManager (see
// compiler/pass_manager.hpp and compiler/compile_passes.hpp);
// HtvmCompiler::Compile is a single pipeline invocation and the per-pass
// breakdown lands in Artifact::pass_timeline.
#pragma once

#include <memory>
#include <string>

#include "compiler/artifact.hpp"
#include "compiler/dispatch.hpp"
#include "dory/schedule_search.hpp"
#include "dory/tiler.hpp"
#include "hw/soc.hpp"

namespace htvm::compiler {

// Artifact-cache interception point (htvmc/htvm-serve --cache-dir),
// defined below CompileOptions; the production implementation lives in
// src/cache (content-addressed LRU + disk persistence).
class ArtifactCacheHook;

// Pass-level introspection knobs (htvmc --dump-ir / --print-pass-times;
// consumed by the PassManager, see compiler/pass_manager.hpp). The manager
// always re-runs Graph::Validate() after every graph-rewriting pass; a
// failure aborts compilation with the offending pass's name.
struct PassInstrumentation {
  // When non-empty, write post-pass IR dumps (<NN>_<pass>.txt + .dot) into
  // this directory (created if missing).
  std::string dump_ir_dir;
  // When non-empty, restrict --dump-ir to the IR *around* the named pass:
  // the graph entering it and the graph it produced (htvmc
  // --dump-ir-filter; keeps dump directories small on big graphs).
  std::string dump_ir_filter;
};

struct CompileOptions {
  // Which accelerators the dispatcher may target. Disabling both (or
  // setting plain_tvm) reproduces the CPU-only TVM baseline.
  DispatchOptions dispatch;
  // Plain-TVM baseline: skip BYOC entirely *and* plan L2 without liveness
  // reuse (TVM's naive graph executor), keeping the TVM runtime size.
  bool plain_tvm = false;
  dory::TilerOptions tiler;
  // How CompileKernels picks each accelerator layer's tile schedule
  // (docs/schedule_search.md): the default `heuristic` is the DORY Eq. 1-5
  // picker, byte-identical to pre-framework artifacts; `graph-beam`
  // searches the feasible candidates with hw::CostModel scoring +
  // simulator validation, and the fusion/dispatch plan one level up
  // (compiler/plan_search.hpp). Part of cache::OptionsFingerprint —
  // tuned and heuristic artifacts never share a cache entry, and a repeat
  // compile served by the artifact cache performs zero evaluations.
  dory::ScheduleSearchOptions schedule_search;
  // Which SoC family member to compile for (hw/soc.hpp). The default is
  // the paper's DIANA chip; other registered variants change the tiler
  // bounds, dispatch cost model, L2 planner, and artifact identity.
  // cache::OptionsFingerprint hashes its name and every config field, so
  // distinct SoCs never share a cache entry.
  hw::SocDescription soc;
  // CompileKernels sharding (docs/compiler_passes.md "Parallel
  // CompileKernels"): concurrent per-kernel compile lanes on the shared
  // pool. 0 = hardware concurrency, 1 = the exact sequential path. Kernel
  // order and names are fixed before dispatch, so the artifact is
  // byte-identical for every value — which is why this knob is absent from
  // cache::OptionsFingerprint.
  int compile_threads = 0;
  PassInstrumentation instrument;
  // Non-owning; when set, PassManager::Run consults it before executing any
  // pass and stores the finished artifact after FinalizeArtifact. Not part
  // of the cache key (see cache::OptionsFingerprint).
  ArtifactCacheHook* cache = nullptr;

  static CompileOptions PlainTvm() {
    CompileOptions o;
    o.plain_tvm = true;
    o.dispatch.enable_digital = false;
    o.dispatch.enable_analog = false;
    return o;
  }
  static CompileOptions DigitalOnly() {
    CompileOptions o;
    o.dispatch.enable_analog = false;
    return o;
  }
  static CompileOptions AnalogOnly() {
    CompileOptions o;
    o.dispatch.enable_digital = false;
    return o;
  }
  // CPU-only with the hand-tuned kernel library (the TVM+CMSIS-NN-style
  // configuration of Table II, via the Sec. V BYOC extension hook).
  static CompileOptions TunedCpuOnly() {
    CompileOptions o;
    o.dispatch.enable_digital = false;
    o.dispatch.enable_analog = false;
    o.dispatch.enable_tuned_cpu_library = true;
    return o;
  }
};

// Compiled-artifact cache interception (ROADMAP "serve-layer artifact
// caching"). PassManager::Run calls Key() once on the *input* network, asks
// Lookup() before executing any pass (a hit replaces the whole pipeline),
// and hands the finished artifact to Store() after the last pass. The
// production implementation — content-addressed keys via
// ir::StructuralHash, byte-budgeted LRU, on-disk persistence — lives in
// src/cache; the compiler only sees this interface, keeping the dependency
// arrow cache -> compiler.
//
// Implementations must be thread-safe: concurrent compiles (the serving
// fleet) share one process-wide cache.
class ArtifactCacheHook {
 public:
  virtual ~ArtifactCacheHook() = default;
  // Canonical cache key for (network, options). Must not depend on NodeId
  // numbering, insertion order, or instrumentation knobs.
  virtual std::string Key(const Graph& network,
                          const CompileOptions& options) = 0;
  // Returns the cached artifact for `key`, or nullptr on a miss.
  virtual std::shared_ptr<const Artifact> Lookup(const std::string& key) = 0;
  // Called with the freshly compiled artifact after a miss.
  virtual void Store(const std::string& key, const Artifact& artifact) = 0;
};

class HtvmCompiler {
 public:
  explicit HtvmCompiler(CompileOptions options) : options_(std::move(options)) {}

  // Compiles a quantized network graph into a deployable artifact.
  Result<Artifact> Compile(const Graph& network) const;

  const CompileOptions& options() const { return options_; }

 private:
  CompileOptions options_;
};

// Rewrites every analog composite body to clamp its activation inputs to
// the IMC front-end's 7-bit range (exposed for tests).
Graph InsertAnalogInputClamps(const Graph& partitioned);

}  // namespace htvm::compiler
