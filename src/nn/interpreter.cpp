#include "nn/interpreter.hpp"

#include "ir/map_graph.hpp"
#include "ir/passes.hpp"
#include "support/logging.hpp"
#include "support/string_utils.hpp"

namespace htvm::nn {

Result<Tensor> EvalOp(const Node& node, std::span<const Tensor> inputs) {
  const AttrMap& a = node.attrs;
  const Tensor& x = inputs[0];
  switch (node.op_id) {
    case OpId::kConv2d:
      return Conv2d(x, inputs[1], a.GetIntVec("strides", {1, 1}),
                    a.GetIntVec("padding", {0, 0, 0, 0}),
                    a.GetInt("groups", 1));
    case OpId::kDense: return Dense(x, inputs[1]);
    case OpId::kBiasAdd: return BiasAdd(x, inputs[1], a.GetInt("axis", 1));
    case OpId::kRightShift: return RightShift(x, inputs[1]);
    case OpId::kClip:
      return Clip(x, a.GetInt("a_min", -128), a.GetInt("a_max", 127));
    case OpId::kCast: {
      DType dtype;
      if (!ParseDType(a.GetString("dtype", "int8"), &dtype)) {
        return Status::InvalidArgument("cast: bad dtype");
      }
      return Cast(x, dtype);
    }
    case OpId::kRelu: return Relu(x);
    case OpId::kAdd: return Add(x, inputs[1]);
    case OpId::kAvgPool2d:
      return AvgPool2d(x, a.GetIntVec("pool_size", {2, 2}),
                       a.GetIntVec("strides", {}), a.GetIntVec("padding", {}));
    case OpId::kMaxPool2d:
      return MaxPool2d(x, a.GetIntVec("pool_size", {2, 2}),
                       a.GetIntVec("strides", {}), a.GetIntVec("padding", {}));
    case OpId::kGlobalAvgPool2d: return GlobalAvgPool2d(x);
    case OpId::kSoftmax: return Softmax(x);
    case OpId::kMatmul:
      return MatMul(x, inputs[1], a.GetInt("transpose_b", 1) != 0);
    case OpId::kTranspose: return Transpose(x, a.GetIntVec("axes"));
    case OpId::kLayerNorm: return LayerNorm(x);
    case OpId::kGelu: return Gelu(x);
    case OpId::kReshape:
    case OpId::kFlatten: return x.Reshaped(node.type.shape);
    case OpId::kPad: return Pad2d(x, a.GetIntVec("pad_width", {0, 0, 0, 0}));
  }
  HTVM_UNREACHABLE("bad op id");
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
        const bool reshape = n.Is(OpId::kReshape) || n.Is(OpId::kFlatten);
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

Graph ConstantFold(const Graph& graph, i64* rewrites) {
  i64 folded = 0;
  Graph out = ir::MapGraph(graph, [&](ir::GraphMapper& m,
                                      const Node& n) -> NodeId {
    if (n.kind != NodeKind::kOp) return m.Clone(n);
    std::vector<NodeId> ins = m.MappedInputs(n);
    bool all_const = !ins.empty();
    for (NodeId in : ins) {
      if (m.out().node(in).kind != NodeKind::kConstant) {
        all_const = false;
        break;
      }
    }
    if (all_const) {
      std::vector<Tensor> in_values;
      in_values.reserve(ins.size());
      for (NodeId in : ins) in_values.push_back(m.out().node(in).value);
      auto value = EvalOp(n, in_values);
      if (value.ok()) {
        ++folded;
        return m.out().AddConstant(std::move(value.value()), n.name);
      }
    }
    return m.CloneWithInputs(n, std::move(ins));
  });
  if (folded > 0) {
    HTVM_DLOG << "constant folding replaced " << folded << " nodes";
  }
  if (rewrites != nullptr) *rewrites = folded;
  return DeadCodeElimination(out);
}

}  // namespace htvm::nn
