#include "runtime/executor.hpp"

#include "dory/tiled_exec.hpp"
#include "nn/interpreter.hpp"
#include "support/string_utils.hpp"

namespace htvm::runtime {
namespace {

// Locates the weight and bias constants inside an accelerator body.
void FindWeightBias(const Graph& body, const Tensor** weight,
                    const Tensor** bias) {
  *weight = nullptr;
  *bias = nullptr;
  for (const Node& n : body.nodes()) {
    if (n.IsOp("nn.conv2d") || n.IsOp("nn.dense") || n.IsOp("matmul")) {
      const Node& w = body.node(n.inputs[1]);
      if (w.kind == NodeKind::kConstant) *weight = &w.value;
    }
    if (n.IsOp("nn.bias_add")) {
      const Node& b = body.node(n.inputs[1]);
      if (b.kind == NodeKind::kConstant) *bias = &b.value;
    }
  }
}

}  // namespace

Executor::Executor(const compiler::Artifact* artifact,
                   ExecutorOptions options)
    : artifact_(artifact), options_(options) {
  HTVM_CHECK(artifact_ != nullptr);
  for (const auto& k : artifact_->kernels) kernels_by_node_[k.node] = &k;
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

  std::vector<Tensor> values(static_cast<size_t>(g.NumNodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(g.inputs()[i])] = inputs[i];
  }

  for (const Node& n : g.nodes()) {
    switch (n.kind) {
      case NodeKind::kInput:
        break;
      case NodeKind::kConstant:
        values[static_cast<size_t>(n.id)] = n.value;
        break;
      case NodeKind::kOp:
        return Status::Internal("bare op in kernel graph");
      case NodeKind::kComposite: {
        std::vector<Tensor> in;
        in.reserve(n.inputs.size());
        for (NodeId id : n.inputs) in.push_back(values[static_cast<size_t>(id)]);

        const auto it = kernels_by_node_.find(n.id);
        const compiler::CompiledKernel* kernel =
            it == kernels_by_node_.end() ? nullptr : it->second;

        if (options_.simulate_tiles && kernel != nullptr &&
            kernel->schedule.has_value()) {
          const Tensor* weight = nullptr;
          const Tensor* bias = nullptr;
          FindWeightBias(*n.body, &weight, &bias);
          // The tiled path consumes the conv-shaped view of the input; a
          // dense layer's body input is already rank-2.
          auto out = dory::ExecuteTiled(*kernel->schedule, in, weight, bias);
          if (!out.ok()) return out.status();
          // Tiled execution emits the final int8 tensor with the layer's
          // natural shape; adopt the body's declared output shape.
          values[static_cast<size_t>(n.id)] =
              std::move(out.value()).Reshaped(n.type.shape);
        } else {
          auto out = nn::RunGraph(*n.body, in);
          if (!out.ok()) return out.status();
          values[static_cast<size_t>(n.id)] = std::move(out.value()[0]);
        }
        break;
      }
    }
  }

  ExecutionResult result;
  for (NodeId id : g.outputs()) {
    result.outputs.push_back(values[static_cast<size_t>(id)]);
  }
  result.profile = art.Profile();
  result.total_cycles = art.TotalFullCycles();
  result.latency_ms = art.hw_config.CyclesToMs(result.total_cycles);
  return result;
}

}  // namespace htvm::runtime
