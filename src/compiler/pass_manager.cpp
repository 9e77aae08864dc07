#include "compiler/pass_manager.hpp"

#include <sys/stat.h>

#include <chrono>
#include <fstream>

#include "ir/dot.hpp"
#include "support/string_utils.hpp"

namespace htvm::compiler {
namespace {

// Writes <dir>/<NN>_<stage>.txt (GraphToString) and .dot (GraphToDot).
// Both renderings are deterministic functions of the graph, so dump
// directories are byte-identical across runs of the same compile.
Status WriteIrDump(const std::string& dir, int index,
                   const std::string& stage, const Graph& graph) {
  ::mkdir(dir.c_str(), 0755);  // best effort; open failures caught below
  const std::string base = StrFormat("%s/%02d_%s", dir.c_str(), index,
                                     stage.c_str());
  {
    std::ofstream txt(base + ".txt");
    txt << GraphToString(graph);
    if (!txt.good()) {
      return Status::InvalidArgument("cannot write IR dump: " + base +
                                     ".txt");
    }
  }
  std::ofstream dot(base + ".dot");
  dot << GraphToDot(graph);
  if (!dot.good()) {
    return Status::InvalidArgument("cannot write IR dump: " + base + ".dot");
  }
  return Status::Ok();
}

}  // namespace

PassManager& PassManager::Add(std::string name,
                              Status (*run)(CompileState&),
                              bool mutates_graph) {
  passes_.push_back(Pass{std::move(name), run, mutates_graph});
  return *this;
}

std::vector<std::string> PassManager::PassNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const Pass& pass : passes_) names.push_back(pass.name);
  return names;
}

Status PassManager::Run(const Graph& network, CompileState& state) const {
  const PassInstrumentation& instrument = state.options.instrument;
  // Artifact cache interception: a hit replaces the whole pipeline with the
  // stored artifact (its pass_timeline is the original compile's, so every
  // downstream report is byte-identical to the cold compile). IR dumping
  // bypasses the lookup — dumps are a debugging tool and must always show
  // this compile's passes — but the result is still stored.
  ArtifactCacheHook* cache = state.options.cache;
  std::string cache_key;
  if (cache != nullptr) {
    cache_key = cache->Key(network, state.options);
    if (instrument.dump_ir_dir.empty()) {
      if (auto cached = cache->Lookup(cache_key)) {
        state.artifact = *cached;
        return Status::Ok();
      }
    }
  }
  // Input validation runs only when the pipeline actually executes: the
  // cache key covers the graph's full content, so a hit proves an
  // identical, previously validated graph compiled to this artifact.
  if (const Status valid = network.Validate(); !valid.ok()) {
    return Status(valid.code(), "input graph: " + valid.message());
  }
  state.graph = network;

  state.artifact.pass_timeline.clear();
  // With --dump-ir-filter only the graphs around the named pass are
  // written: the one entering it (the preceding stage's output) and the
  // one it produced.
  const auto filtered_out = [&](int idx) {
    if (instrument.dump_ir_filter.empty()) return false;
    const size_t i = static_cast<size_t>(idx);
    const bool self = i < passes_.size() &&
                      passes_[i].name == instrument.dump_ir_filter;
    const bool feeds_next = i + 1 < passes_.size() &&
                            passes_[i + 1].name == instrument.dump_ir_filter;
    return !self && !feeds_next;
  };
  // The pipeline input is dumped when unfiltered, or when the first pass is
  // the filtered one (it is that pass's input).
  if (!instrument.dump_ir_dir.empty() &&
      (instrument.dump_ir_filter.empty() ||
       (!passes_.empty() &&
        passes_[0].name == instrument.dump_ir_filter))) {
    HTVM_RETURN_IF_ERROR(
        WriteIrDump(instrument.dump_ir_dir, 0, "input", state.graph));
  }
  int index = 0;
  for (const Pass& pass : passes_) {
    ++index;
    PassStat stat;
    stat.name = pass.name;
    stat.nodes_before = state.graph.NumNodes();
    state.pass_changed_graph = true;
    const auto start = std::chrono::steady_clock::now();
    const Status status = pass.run(state);
    stat.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (!status.ok()) {
      return Status(status.code(),
                    "pass " + stat.name + ": " + status.message());
    }
    stat.nodes_after = state.graph.NumNodes();
    // Pass-level early-exit: a rewriting pass that reported no change (and
    // whose node count agrees) needs no re-validation and no IR dump — the
    // graph is the one the previous pass already validated/dumped.
    stat.skipped = pass.mutates_graph && !state.pass_changed_graph &&
                   stat.nodes_before == stat.nodes_after;
    const bool skipped = stat.skipped;
    state.artifact.pass_timeline.push_back(std::move(stat));
    if (!pass.mutates_graph) continue;
    if (!skipped) {
      if (const Status valid = state.graph.Validate(); !valid.ok()) {
        return Status::Internal(
            StrFormat("pass %s produced an invalid graph: %s",
                      pass.name.c_str(), valid.ToString().c_str()));
      }
    }
    // Skipped passes write no dump — except under a filter, where the
    // explicitly requested around-the-pass pair stays complete.
    if (!instrument.dump_ir_dir.empty() && !filtered_out(index - 1) &&
        (!skipped || !instrument.dump_ir_filter.empty())) {
      HTVM_RETURN_IF_ERROR(WriteIrDump(instrument.dump_ir_dir, index,
                                       pass.name, state.graph));
    }
  }
  if (cache != nullptr) cache->Store(cache_key, state.artifact);
  return Status::Ok();
}

std::string PassTimelineToTable(const PassTimeline& timeline) {
  std::string out =
      StrFormat("%-26s %12s %16s\n", "pass", "wall_us", "nodes");
  i64 total_ns = 0;
  for (const PassStat& stat : timeline) {
    total_ns += stat.wall_ns;
    out += StrFormat("%-26s %12.1f %6lld -> %-6lld%s\n", stat.name.c_str(),
                     static_cast<double>(stat.wall_ns) / 1e3,
                     static_cast<long long>(stat.nodes_before),
                     static_cast<long long>(stat.nodes_after),
                     stat.skipped ? " skipped" : "");
  }
  out += StrFormat("%-26s %12.1f\n", "total",
                   static_cast<double>(total_ns) / 1e3);
  return out;
}

}  // namespace htvm::compiler
