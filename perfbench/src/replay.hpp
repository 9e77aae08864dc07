// Out-of-program replay of runtime::Executor::Run.
//
// The benchmark cannot see inside Executor::Run, so the traced run walks the
// same kernel graph itself through the layers' public functions: every
// kernel body goes node by node through nn::EvalOp (recursing into nested
// composites the way nn::RunGraph does), and with simulate_tiles every
// scheduled accelerator kernel goes through dory::ExecuteTiled. Each call is
// a span, so the replay splits an inference into per-op kernel time, graph
// marshalling (nn.graph_self) and executor overhead (runtime.self). Callers
// check that the replay's outputs are bit-exact with Executor::Run.
#pragma once

#include "common.hpp"

namespace perfbench {

// The op vocabulary reported as nn.op.<op>.{ms,calls}.
const std::vector<std::string>& ReportedOps();

struct OpTotals {
  double ms = 0;
  i64 calls = 0;
};

struct ReplayTotals {
  std::map<std::string, OpTotals> ops;  // by op name without "nn."
  double graph_self_ms = 0;    // RunGraph bodies minus their EvalOps
  double runtime_self_ms = 0;  // Executor::Run minus its kernel bodies
  double tiled_exec_ms = 0;    // dory::ExecuteTiled
  i64 tiled_calls = 0;
  i64 tile_steps = 0;
  double total_ms = 0;         // the whole replayed Executor::Run
};

Result<std::vector<Tensor>> ReplayRun(const compiler::Artifact& art,
                                      std::span<const Tensor> inputs,
                                      bool simulate_tiles,
                                      ReplayTotals* totals);

}  // namespace perfbench
