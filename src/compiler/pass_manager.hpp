// Instrumented pass infrastructure for the compile pipeline.
//
// The Fig. 1 flow is a fixed list of named functions over a shared
// CompileState (the graph being rewritten + the artifact under
// construction). A pass is a plain {name, run, mutates_graph} record; the
// PassManager runs the list in order and, for each pass, records
// wall-clock time and the top-level node-count delta into
// Artifact::pass_timeline. After every graph-rewriting pass it
// re-validates the graph (catching a rewrite bug at the pass that
// introduced it, not at emission) and, per state.options.instrument,
// dumps the IR as text + Graphviz DOT.
//
// The standard HTVM pipeline is listed in compiler/compile_passes.cpp;
// docs/compiler_passes.md describes how to add a pass.
#pragma once

#include <string>
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
  // Early-exit channel: the PassManager resets this to true before each
  // pass; a graph-rewriting pass that can prove it changed nothing (e.g.
  // AbsorbPadding with zero absorbed pads) sets it to false, and the
  // manager then skips post-pass re-validation and IR dumps, marking the
  // PassStat as skipped.
  bool pass_changed_graph = true;
};

// One pipeline stage: a named, deterministic function of the state (all
// configuration comes from state.options). Graph-rewriting passes get
// Graph::Validate() and IR dumps after running; artifact-only passes
// (kernel compilation, memory planning) are timed but leave state.graph
// alone.
struct Pass {
  std::string name;
  Status (*run)(CompileState& state) = nullptr;
  bool mutates_graph = true;
};

class PassManager {
 public:
  PassManager& Add(std::string name, Status (*run)(CompileState&),
                   bool mutates_graph = true);

  // Registered pass names, in execution order (the pipeline snapshot).
  std::vector<std::string> PassNames() const;

  // Consults state.options.cache keyed on `network` and, on a hit, fills
  // state.artifact without ever copying the network into the state — the
  // hit path costs one structural hash. On a miss, validates `network`,
  // copies it into state.graph and runs every pass in order, recording the
  // timeline into state.artifact.pass_timeline and honouring
  // state.options.instrument. Stops at the first failure; the returned
  // status names the offending pass. Inter-pass validation failures are
  // reported as kInternal.
  Status Run(const Graph& network, CompileState& state) const;

 private:
  std::vector<Pass> passes_;
};

// Renders a per-pass timing / node-delta table (htvmc --print-pass-times).
std::string PassTimelineToTable(const PassTimeline& timeline);

}  // namespace htvm::compiler
