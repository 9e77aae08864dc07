#include "ir/graph.hpp"

#include <algorithm>

#include "support/string_utils.hpp"

namespace htvm {
namespace {

// The one type rule of an op node, shared by construction and validation:
// look `op` up in the table, check its arity, input ids and extents, infer
// the output type and cap it at kMaxTensorElements. `id` (when non-null)
// receives the table row.
Result<TensorType> InferOpType(const Graph& graph, const std::string& op,
                               const std::vector<NodeId>& inputs,
                               const AttrMap& attrs, OpId* id = nullptr) {
  const OpDef* def = FindOp(op);
  if (def == nullptr) {
    return Status::NotFound("unknown op: " + op);
  }
  if (inputs.size() != static_cast<size_t>(def->arity)) {
    return Status::InvalidArgument(
        StrFormat("op %s expects %d inputs, got %zu", op.c_str(), def->arity,
                  inputs.size()));
  }
  // The kernels divide by and loop over extents: one <= 0 is a typed error
  // here rather than a SIGFPE at run time.
  const auto check_extents = [&](const Shape& shape, const char* what) {
    const auto& d = shape.dims();
    return std::all_of(d.begin(), d.end(), [](i64 e) { return e > 0; })
               ? Status::Ok()
               : Status::InvalidArgument(
                     StrFormat("%s: %s shape %s has an extent <= 0", op.c_str(),
                               what, shape.ToString().c_str()));
  };
  std::vector<TensorType> in_types;
  in_types.reserve(inputs.size());
  for (NodeId in : inputs) {
    if (in < 0 || in >= graph.NumNodes()) {
      return Status::InvalidArgument("input node id out of range");
    }
    in_types.push_back(graph.node(in).type);
    HTVM_RETURN_IF_ERROR(check_extents(in_types.back().shape, "input"));
  }
  auto out_type = def->infer(in_types, attrs);
  if (!out_type.ok()) {
    return Status(out_type.status().code(),
                  op + ": " + out_type.status().message());
  }
  HTVM_RETURN_IF_ERROR(check_extents(out_type->shape, "output"));
  i64 elems = 1;
  for (i64 d : out_type->shape.dims()) {
    if (d > kMaxTensorElements / elems) {
      return Status::InvalidArgument(
          StrFormat("%s: output shape %s exceeds %lld elements", op.c_str(),
                    out_type->shape.ToString().c_str(),
                    static_cast<long long>(kMaxTensorElements)));
    }
    elems *= d;
  }
  if (id != nullptr) *id = def->id;
  return out_type;
}

}  // namespace

NodeId Graph::Append(Node node) {
  node.id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

NodeId Graph::AddInput(const std::string& name, TensorType type) {
  Node n;
  n.kind = NodeKind::kInput;
  n.name = name;
  n.type = std::move(type);
  const NodeId id = Append(std::move(n));
  input_ids_.push_back(id);
  return id;
}

NodeId Graph::AddConstant(Tensor value, const std::string& name) {
  Node n;
  n.kind = NodeKind::kConstant;
  n.name = name;
  n.type = TensorType{value.shape(), value.dtype()};
  n.value = std::move(value);
  return Append(std::move(n));
}

Result<NodeId> Graph::TryAddOp(const std::string& op,
                               std::vector<NodeId> inputs, AttrMap attrs,
                               const std::string& name) {
  Node n;
  HTVM_ASSIGN_OR_RETURN(out_type,
                        InferOpType(*this, op, inputs, attrs, &n.op_id));
  n.kind = NodeKind::kOp;
  n.op = op;
  n.name = name;
  n.inputs = std::move(inputs);
  n.attrs = std::move(attrs);
  n.type = std::move(out_type);
  return Append(std::move(n));
}

NodeId Graph::AddOp(const std::string& op, std::vector<NodeId> inputs,
                    AttrMap attrs, const std::string& name) {
  auto result = TryAddOp(op, std::move(inputs), std::move(attrs), name);
  if (!result.ok()) {
    detail::FatalError(__FILE__, __LINE__,
                       result.status().ToString().c_str());
  }
  return result.value();
}

NodeId Graph::AddComposite(const std::string& composite_kind,
                           std::vector<NodeId> inputs,
                           std::shared_ptr<const Graph> body, AttrMap attrs) {
  HTVM_CHECK(body != nullptr);
  HTVM_CHECK_MSG(body->outputs().size() == 1,
                 "composite body must have one output");
  HTVM_CHECK_MSG(body->inputs().size() == inputs.size(),
                 "composite inputs must match body parameters");
  Node n;
  n.kind = NodeKind::kComposite;
  n.op = composite_kind;
  n.inputs = std::move(inputs);
  n.attrs = std::move(attrs);
  n.attrs.Set("composite", composite_kind);
  n.type = body->node(body->outputs()[0]).type;
  n.body = std::move(body);
  return Append(std::move(n));
}

void Graph::SetOutputs(std::vector<NodeId> outputs) {
  for (NodeId id : outputs) HTVM_CHECK(id >= 0 && id < NumNodes());
  output_ids_ = std::move(outputs);
}

const Node& Graph::node(NodeId id) const {
  HTVM_CHECK(id >= 0 && id < NumNodes());
  return nodes_[static_cast<size_t>(id)];
}

Node& Graph::mutable_node(NodeId id) {
  HTVM_CHECK(id >= 0 && id < NumNodes());
  return nodes_[static_cast<size_t>(id)];
}

std::vector<i32> Graph::UseCounts() const {
  std::vector<i32> uses(nodes_.size(), 0);
  for (const Node& n : nodes_) {
    for (NodeId in : n.inputs) ++uses[static_cast<size_t>(in)];
  }
  for (NodeId out : output_ids_) ++uses[static_cast<size_t>(out)];
  return uses;
}

Status Graph::Validate() const {
  if (output_ids_.empty()) {
    return Status::InvalidArgument("graph has no outputs");
  }
  for (const Node& n : nodes_) {
    for (NodeId in : n.inputs) {
      if (in < 0 || in >= n.id) {
        return Status::InvalidArgument(StrFormat(
            "node %d consumes node %d (not topologically earlier)", n.id, in));
      }
    }
    if (n.kind == NodeKind::kOp) {
      HTVM_ASSIGN_OR_RETURN(inferred,
                            InferOpType(*this, n.op, n.inputs, n.attrs));
      if (!(inferred == n.type)) {
        return Status::Internal(
            StrFormat("node %d type mismatch: stored %s vs inferred %s", n.id,
                      n.type.ToString().c_str(),
                      inferred.ToString().c_str()));
      }
    } else if (n.kind == NodeKind::kComposite) {
      if (n.body == nullptr) {
        return Status::Internal("composite node without body");
      }
      HTVM_RETURN_IF_ERROR(n.body->Validate());
    }
  }
  return Status::Ok();
}

std::string GraphToString(const Graph& graph) {
  std::string out;
  for (const Node& n : graph.nodes()) {
    std::vector<std::string> ins;
    ins.reserve(n.inputs.size());
    for (NodeId in : n.inputs) ins.push_back("%" + std::to_string(in));
    std::string head;
    switch (n.kind) {
      case NodeKind::kInput:
        head = StrFormat("input \"%s\"", n.name.c_str());
        break;
      case NodeKind::kConstant:
        head = "const";
        break;
      case NodeKind::kOp:
        head = n.op + "(" + Join(ins, ", ") + ")";
        if (!n.attrs.values().empty()) head += " " + n.attrs.ToString();
        break;
      case NodeKind::kComposite:
        head = "composite<" + n.op + ">(" + Join(ins, ", ") + ") " +
               n.attrs.ToString();
        break;
    }
    out += StrFormat("%%%d: %s : %s\n", n.id, head.c_str(),
                     n.type.ToString().c_str());
  }
  std::vector<std::string> outs;
  for (NodeId id : graph.outputs()) outs.push_back("%" + std::to_string(id));
  out += "outputs: " + Join(outs, ", ") + "\n";
  return out;
}

}  // namespace htvm
