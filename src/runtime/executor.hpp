// HTVM runtime: executes a compiled artifact on the DIANA simulator.
//
// Like TVM's AOT executor, the constructor resolves the artifact once into
// one step per kernel (artifact.kernels order, which Artifact guarantees is
// composite node order). A step interprets the kernel's fused body
// (bit-exact int8 semantics); with `simulate_tiles` an accelerator kernel
// instead runs its DORY tile schedule — slower, but proves the deployed
// schedule computes the same bytes. Timing is not a run result: DIANA
// kernels are data-independent, so cycles are decided at compile time, like
// reading the paper's hardware counters — see Artifact::Profile.
#pragma once

#include "compiler/artifact.hpp"
#include "dory/layer_spec.hpp"
#include "hw/fault.hpp"
#include "tensor/tensor.hpp"

namespace htvm::runtime {

struct ExecutorOptions {
  bool simulate_tiles = false;  // drive accel kernels tile by tile
  bool enforce_memory = true;   // fail like the board when L2 overflows
};

// Simulated-hardware context for one Run attempt. When `faults` is set, the
// attempt consults the fault plan for its (soc, time window): a crash that
// strikes before `end_us` or a transient window covering `start_us` makes
// Run fail with a typed Unavailable status — recoverable error propagation
// instead of an assert, so the serving fleet can retry or re-dispatch. The
// scheduler and the runtime query the same injector with the same
// arguments, which keeps the simulated-clock plan and the real execution
// outcome consistent.
struct RunContext {
  const hw::FaultInjector* faults = nullptr;
  int soc = 0;          // simulated SoC instance running the attempt
  double start_us = 0;  // simulated attempt start
  double end_us = 0;    // simulated attempt completion (if healthy)
};

struct ExecutionResult {
  std::vector<Tensor> outputs;
};

// Thread-safety: an Executor is immutable after construction and `Run` only
// reads its steps and the (shared, const) artifact — all per-run state
// lives on the caller's stack. Any number of threads may call `Run`
// concurrently on one Executor (or on distinct Executors sharing one
// Artifact); the serving layer (src/serve) relies on this to drive a fleet
// of simulated SoCs from a worker pool.
class Executor {
 public:
  explicit Executor(const compiler::Artifact* artifact,
                    ExecutorOptions options = {});

  Result<ExecutionResult> Run(std::span<const Tensor> inputs,
                              const RunContext* ctx = nullptr) const;

 private:
  // One kernel call; every pointer borrows from the artifact.
  struct Step {
    const Node* composite = nullptr;
    const dory::AccelSchedule* tiled = nullptr;  // null: run the body
    dory::WeightBias params;  // the tiled layer's weight and bias
  };

  const compiler::Artifact* artifact_;  // non-owning; outlives the executor
  ExecutorOptions options_;
  std::vector<Step> steps_;
};

}  // namespace htvm::runtime
