#include "replay.hpp"

#include "dory/tiled_exec.hpp"
#include "nn/interpreter.hpp"

namespace perfbench {
namespace {

// nn.flatten is evaluated as a reshape, so it is reported as one.
std::string OpKey(const std::string& op) {
  if (op == "nn.flatten") return "reshape";
  return op.rfind("nn.", 0) == 0 ? op.substr(3) : op;
}

// Mirrors nn::RunGraph. The graph's self time is its span minus the EvalOps
// and nested bodies it ran.
Result<std::vector<Tensor>> ReplayGraph(const Graph& graph,
                                        std::span<const Tensor> inputs,
                                        ReplayTotals* totals) {
  Span span("nn", "nn.RunGraph");
  if (inputs.size() != graph.inputs().size()) {
    return Status::InvalidArgument("replay: graph input count mismatch");
  }
  std::vector<Tensor> values(static_cast<size_t>(graph.NumNodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(graph.inputs()[i])] = inputs[i];
  }
  double children_ms = 0;
  for (const Node& n : graph.nodes()) {
    switch (n.kind) {
      case NodeKind::kInput:
        break;
      case NodeKind::kConstant:
        values[static_cast<size_t>(n.id)] = n.value;
        break;
      case NodeKind::kOp: {
        std::vector<Tensor> in;
        in.reserve(n.inputs.size());
        for (NodeId id : n.inputs) {
          in.push_back(values[static_cast<size_t>(id)]);
        }
        Span op("nn", n.op);
        auto out = nn::EvalOp(n, in);
        const double ms = op.Stop();
        if (!out.ok()) return out.status();
        OpTotals& t = totals->ops[OpKey(n.op)];
        t.ms += ms;
        ++t.calls;
        children_ms += ms;
        values[static_cast<size_t>(n.id)] = std::move(out.value());
        break;
      }
      case NodeKind::kComposite: {
        std::vector<Tensor> in;
        in.reserve(n.inputs.size());
        for (NodeId id : n.inputs) {
          in.push_back(values[static_cast<size_t>(id)]);
        }
        const Clock::time_point start = Clock::now();
        auto out = ReplayGraph(*n.body, in, totals);
        children_ms += std::chrono::duration<double, std::milli>(
                           Clock::now() - start)
                           .count();
        if (!out.ok()) return out.status();
        values[static_cast<size_t>(n.id)] = std::move(out.value()[0]);
        break;
      }
    }
  }
  std::vector<Tensor> outputs;
  for (NodeId id : graph.outputs()) {
    outputs.push_back(values[static_cast<size_t>(id)]);
  }
  totals->graph_self_ms += span.Stop() - children_ms;
  return outputs;
}

// Mirrors the executor's lookup of an accelerator body's weight and bias.
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

const std::vector<std::string>& ReportedOps() {
  // The ops the five registry models execute. relu, avg_pool2d,
  // max_pool2d and pad never reach the interpreter in them (pad is absorbed
  // at compile time), so they are left out; the coverage check still counts
  // any op that does run.
  static const std::vector<std::string> kOps = {
      "conv2d", "dense", "bias_add", "right_shift", "clip", "cast", "add",
      "global_avg_pool2d", "softmax", "matmul", "transpose", "layernorm",
      "gelu", "reshape"};
  return kOps;
}

Result<std::vector<Tensor>> ReplayRun(const compiler::Artifact& art,
                                      std::span<const Tensor> inputs,
                                      bool simulate_tiles,
                                      ReplayTotals* totals) {
  Span run("runtime", simulate_tiles ? "Executor::Run(tiles)"
                                     : "Executor::Run");
  std::map<NodeId, const compiler::CompiledKernel*> kernels_by_node;
  for (const auto& k : art.kernels) kernels_by_node[k.node] = &k;
  if (!art.memory_plan.fits) {
    return Status::ResourceExhausted("replay: deployment exceeds L2");
  }
  const Graph& g = art.kernel_graph;
  if (inputs.size() != g.inputs().size()) {
    return Status::InvalidArgument("replay: input count mismatch");
  }
  std::vector<Tensor> values(static_cast<size_t>(g.NumNodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(g.inputs()[i])] = inputs[i];
  }
  double kernels_ms = 0;
  for (const Node& n : g.nodes()) {
    switch (n.kind) {
      case NodeKind::kInput:
        break;
      case NodeKind::kConstant:
        values[static_cast<size_t>(n.id)] = n.value;
        break;
      case NodeKind::kOp:
        return Status::Internal("replay: bare op in kernel graph");
      case NodeKind::kComposite: {
        std::vector<Tensor> in;
        in.reserve(n.inputs.size());
        for (NodeId id : n.inputs) {
          in.push_back(values[static_cast<size_t>(id)]);
        }
        const auto it = kernels_by_node.find(n.id);
        const compiler::CompiledKernel* kernel =
            it == kernels_by_node.end() ? nullptr : it->second;
        if (simulate_tiles && kernel != nullptr &&
            kernel->schedule.has_value()) {
          const Tensor* weight = nullptr;
          const Tensor* bias = nullptr;
          FindWeightBias(*n.body, &weight, &bias);
          Span tiled("dory", "dory::ExecuteTiled");
          auto out = dory::ExecuteTiled(*kernel->schedule, in, weight, bias);
          const double ms = tiled.Stop();
          if (!out.ok()) return out.status();
          totals->tiled_exec_ms += ms;
          ++totals->tiled_calls;
          totals->tile_steps +=
              static_cast<i64>(kernel->schedule->steps.size());
          kernels_ms += ms;
          values[static_cast<size_t>(n.id)] =
              out.value().Reshaped(n.type.shape);
        } else {
          const Clock::time_point start = Clock::now();
          auto out = ReplayGraph(*n.body, in, totals);
          kernels_ms += std::chrono::duration<double, std::milli>(
                            Clock::now() - start)
                            .count();
          if (!out.ok()) return out.status();
          values[static_cast<size_t>(n.id)] = std::move(out.value()[0]);
        }
        break;
      }
    }
  }
  std::vector<Tensor> outputs;
  for (NodeId id : g.outputs()) {
    outputs.push_back(values[static_cast<size_t>(id)]);
  }
  // Executor::Run also assembles the static profile it returns.
  [[maybe_unused]] const hw::RunProfile profile = art.Profile();
  [[maybe_unused]] const i64 cycles = art.TotalFullCycles();
  const double total = run.Stop();
  totals->total_ms += total;
  totals->runtime_self_ms += total - kernels_ms;
  return outputs;
}

}  // namespace perfbench
