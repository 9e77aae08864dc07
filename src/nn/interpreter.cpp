#include "nn/interpreter.hpp"

#include "support/string_utils.hpp"

namespace htvm::nn {

Result<Tensor> EvalOp(const Node& node, std::span<const Tensor> inputs) {
  const std::string& op = node.op;
  const AttrMap& a = node.attrs;
  if (op == "nn.conv2d") {
    return Conv2d(inputs[0], inputs[1], a.GetIntVec("strides", {1, 1}),
                  a.GetIntVec("padding", {0, 0, 0, 0}), a.GetInt("groups", 1));
  }
  if (op == "nn.dense") return Dense(inputs[0], inputs[1]);
  if (op == "nn.bias_add") {
    return BiasAdd(inputs[0], inputs[1], a.GetInt("axis", 1));
  }
  if (op == "right_shift") return RightShift(inputs[0], inputs[1]);
  if (op == "clip") {
    return Clip(inputs[0], a.GetInt("a_min", -128), a.GetInt("a_max", 127));
  }
  if (op == "cast") {
    DType dtype;
    if (!ParseDType(a.GetString("dtype", "int8"), &dtype)) {
      return Status::InvalidArgument("cast: bad dtype");
    }
    return Cast(inputs[0], dtype);
  }
  if (op == "nn.relu") return Relu(inputs[0]);
  if (op == "add") return Add(inputs[0], inputs[1]);
  if (op == "nn.avg_pool2d") {
    return AvgPool2d(inputs[0], a.GetIntVec("pool_size", {2, 2}),
                     a.GetIntVec("strides", {}), a.GetIntVec("padding", {}));
  }
  if (op == "nn.max_pool2d") {
    return MaxPool2d(inputs[0], a.GetIntVec("pool_size", {2, 2}),
                     a.GetIntVec("strides", {}), a.GetIntVec("padding", {}));
  }
  if (op == "nn.global_avg_pool2d") return GlobalAvgPool2d(inputs[0]);
  if (op == "nn.softmax") return Softmax(inputs[0]);
  if (op == "matmul") {
    return MatMul(inputs[0], inputs[1], a.GetInt("transpose_b", 1) != 0);
  }
  if (op == "transpose") return Transpose(inputs[0], a.GetIntVec("axes"));
  if (op == "nn.layernorm") return LayerNorm(inputs[0]);
  if (op == "nn.gelu") return Gelu(inputs[0]);
  if (op == "nn.pad") {
    return Pad2d(inputs[0], a.GetIntVec("pad_width", {0, 0, 0, 0}));
  }
  if (op == "reshape" || op == "nn.flatten") {
    return inputs[0].Reshaped(node.type.shape);
  }
  return Status::Unsupported("no evaluator for op " + op);
}

Status CheckInputs(const Graph& graph, std::span<const Tensor> inputs) {
  if (inputs.size() != graph.inputs().size()) {
    return Status::InvalidArgument(
        StrFormat("graph expects %zu inputs, got %zu", graph.inputs().size(),
                  inputs.size()));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Node& param = graph.node(graph.inputs()[i]);
    if (!(inputs[i].shape() == param.type.shape) ||
        inputs[i].dtype() != param.type.dtype) {
      return Status::InvalidArgument(StrFormat(
          "input %zu type mismatch: got %s%s, expected %s", i,
          DTypeName(inputs[i].dtype()), inputs[i].shape().ToString().c_str(),
          param.type.ToString().c_str()));
    }
  }
  return Status::Ok();
}

Result<std::vector<Tensor>> RunGraph(const Graph& graph,
                                     std::span<const Tensor> inputs) {
  HTVM_RETURN_IF_ERROR(CheckInputs(graph, inputs));
  std::vector<Tensor> values(static_cast<size_t>(graph.NumNodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(graph.inputs()[i])] = inputs[i];
  }
  for (const Node& n : graph.nodes()) {
    switch (n.kind) {
      case NodeKind::kInput:
        break;  // already seeded
      case NodeKind::kConstant:
        values[static_cast<size_t>(n.id)] = n.value;
        break;
      case NodeKind::kOp: {
        std::vector<Tensor> in;
        in.reserve(n.inputs.size());
        for (NodeId id : n.inputs) in.push_back(values[static_cast<size_t>(id)]);
        // A reshape adopts the storage of its (already copied) input.
        const bool reshape =
            (n.IsOp("reshape") || n.IsOp("nn.flatten")) && in.size() == 1;
        auto out = reshape ? Result<Tensor>(
                                 std::move(in[0]).Reshaped(n.type.shape))
                           : EvalOp(n, in);
        if (!out.ok()) {
          return Status(out.status().code(),
                        StrFormat("node %%%d (%s): %s", n.id, n.op.c_str(),
                                  out.status().message().c_str()));
        }
        values[static_cast<size_t>(n.id)] = std::move(out.value());
        break;
      }
      case NodeKind::kComposite: {
        std::vector<Tensor> in;
        in.reserve(n.inputs.size());
        for (NodeId id : n.inputs) in.push_back(values[static_cast<size_t>(id)]);
        auto out = RunGraph(*n.body, in);
        if (!out.ok()) return out.status();
        HTVM_CHECK(out.value().size() == 1);
        values[static_cast<size_t>(n.id)] = std::move(out.value()[0]);
        break;
      }
    }
  }
  std::vector<Tensor> outputs;
  outputs.reserve(graph.outputs().size());
  for (NodeId id : graph.outputs()) {
    outputs.push_back(values[static_cast<size_t>(id)]);
  }
  return outputs;
}

NodeEvaluator StandardEvaluator() {
  return [](const Node& node, std::span<const Tensor> inputs) {
    return EvalOp(node, inputs);
  };
}

}  // namespace htvm::nn
