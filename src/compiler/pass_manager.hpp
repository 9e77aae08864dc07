// Instrumented pass infrastructure for the compile pipeline.
//
// The Fig. 1 flow is expressed as a sequence of named passes over a shared
// CompileState (the graph being rewritten + the artifact under
// construction). The PassManager runs the registered sequence and, for each
// pass, records wall-clock time and the top-level node-count delta into
// Artifact::pass_timeline; after every graph-rewriting pass it re-validates
// the graph (catching a rewrite bug at the pass that introduced it, not at
// emission) and optionally dumps the IR as text + Graphviz DOT.
//
// The standard HTVM pipeline is registered in compiler/compile_passes.hpp;
// docs/compiler_passes.md describes how to add a pass.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/pipeline.hpp"

namespace htvm::compiler {

// Mutable state threaded through the pass pipeline. `graph` starts as the
// input network and ends as the lowered kernel graph; passes fill in the
// artifact as they go.
struct CompileState {
  explicit CompileState(const CompileOptions& options) : options(options) {}

  const CompileOptions& options;
  Graph graph;
  Artifact artifact;
  // Human-readable notes passes may leave for diagnostics/reports.
  std::vector<std::string> diagnostics;
  // Early-exit channel: the PassManager resets this to true before each
  // pass; a graph-rewriting pass that can prove it changed nothing (e.g.
  // AbsorbPadding with zero absorbed pads) sets it to false, and the
  // manager then skips post-pass re-validation and IR dumps, marking the
  // PassStat as skipped.
  bool pass_changed_graph = true;
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

// One pipeline stage. Passes must be deterministic functions of the state:
// all configuration comes from state.options.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  virtual Status Run(CompileState& state) const = 0;
  // Graph-rewriting passes get Graph::Validate() and IR dumps after
  // running; artifact-only passes (kernel compilation, memory planning)
  // are timed but leave state.graph alone.
  virtual bool mutates_graph() const { return true; }
};

class PassManager {
 public:
  PassManager& Add(std::unique_ptr<Pass> pass);
  // Registers an ad-hoc lambda pass (tests, one-off experiments).
  PassManager& Add(std::string name, std::function<Status(CompileState&)> run,
                   bool mutates_graph = true);

  // Registered pass names, in execution order (the pipeline snapshot).
  std::vector<std::string> PassNames() const;

  // Runs every pass in order, recording the timeline into
  // state.artifact.pass_timeline. Stops at the first failure; the returned
  // status names the offending pass. Inter-pass validation failures are
  // reported as kInternal.
  Status Run(CompileState& state,
             const PassInstrumentation& instrument = {}) const;

  // Cache-aware entry point: consults state.options.cache keyed on
  // `network` and, on a hit, fills state.artifact without ever copying the
  // network into the state — the hit path costs one structural hash. On a
  // miss, copies `network` into state.graph and runs the pipeline.
  Status Run(const Graph& network, CompileState& state,
             const PassInstrumentation& instrument = {}) const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

// Renders a per-pass timing / node-delta table (htvmc --print-pass-times).
std::string PassTimelineToTable(const PassTimeline& timeline);

}  // namespace htvm::compiler
