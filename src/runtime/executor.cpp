#include "runtime/executor.hpp"

#include "dory/tiled_exec.hpp"
#include "nn/interpreter.hpp"
#include "support/string_utils.hpp"

namespace htvm::runtime {

Executor::Executor(const compiler::Artifact* artifact,
                   ExecutorOptions options)
    : artifact_(artifact), options_(options) {
  HTVM_CHECK(artifact_ != nullptr);
  for (const compiler::CompiledKernel& kernel : artifact_->kernels) {
    Step step;
    step.composite = &artifact_->kernel_graph.node(kernel.node);
    HTVM_CHECK(step.composite->kind == NodeKind::kComposite);
    if (options_.simulate_tiles && kernel.schedule.has_value()) {
      step.tiled = &*kernel.schedule;
      step.params = dory::FindWeightBias(*step.composite->body);
    }
    steps_.push_back(step);
  }
}

Result<ExecutionResult> Executor::Run(std::span<const Tensor> inputs,
                                      const RunContext* ctx) const {
  const compiler::Artifact& art = *artifact_;
  if (ctx != nullptr && ctx->faults != nullptr) {
    if (ctx->faults->CrashedBy(ctx->soc, ctx->end_us)) {
      return Status::Unavailable(StrFormat(
          "injected fault: soc %d crashed at %.1f us (attempt [%.1f, %.1f])",
          ctx->soc, ctx->faults->CrashTimeUs(ctx->soc), ctx->start_us,
          ctx->end_us));
    }
    if (ctx->faults->TransientAt(ctx->soc, ctx->start_us)) {
      return Status::Unavailable(StrFormat(
          "injected fault: transient DMA/accelerator error on soc %d at "
          "%.1f us",
          ctx->soc, ctx->start_us));
    }
  }
  if (options_.enforce_memory && !art.memory_plan.fits) {
    return Status::ResourceExhausted(StrFormat(
        "out of memory: deployment needs %lld B of L2 (capacity %lld B)",
        static_cast<long long>(art.memory_plan.total_l2_bytes),
        static_cast<long long>(art.hw_config.l2_bytes)));
  }
  const Graph& g = art.kernel_graph;
  // The tiled path indexes its input by the layer geometry, so a wrong
  // shape must stop here rather than inside a tile.
  HTVM_RETURN_IF_ERROR(nn::CheckInputs(g, inputs));

  // Activations by node id; constants are read in place from the graph.
  std::vector<Tensor> values(static_cast<size_t>(g.NumNodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(g.inputs()[i])] = inputs[i];
  }
  const auto value = [&](NodeId id) -> const Tensor& {
    const Node& n = g.node(id);
    return n.kind == NodeKind::kConstant ? n.value : values[n.id];
  };

  std::vector<Tensor> in;
  for (const Step& step : steps_) {
    const Node& n = *step.composite;
    in.clear();
    for (NodeId id : n.inputs) in.push_back(value(id));
    Tensor& out = values[static_cast<size_t>(n.id)];
    if (step.tiled != nullptr) {
      HTVM_ASSIGN_OR_RETURN(tiled, dory::ExecuteTiled(*step.tiled, in,
                                                      step.params.weight,
                                                      step.params.bias));
      // Tiles emit the layer's natural shape; adopt the body's.
      out = std::move(tiled).Reshaped(n.type.shape);
    } else {
      HTVM_ASSIGN_OR_RETURN(body, nn::RunGraph(*n.body, in));
      out = std::move(body[0]);
    }
  }

  ExecutionResult result;
  for (NodeId id : g.outputs()) result.outputs.push_back(value(id));
  return result;
}

}  // namespace htvm::runtime
