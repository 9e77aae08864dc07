// Dataflow graph IR (the reproduction's Relay analogue).
//
// A Graph is an append-only arena of single-output nodes; node inputs must
// already exist when a node is added, so node-id order is always a valid
// topological order. Four node kinds exist:
//
//   kInput      graph parameter (activation entering the network)
//   kConstant   weights/bias/shift constants embedded in the graph
//   kOp         an operator of the op table (see ir/op.hpp)
//   kComposite  a fused accelerator pattern produced by the BYOC rewriter;
//               holds the original op subgraph as its body plus dispatch
//               attributes ("composite", "target")
//
// The BYOC flow (Sec. III-A of the paper) turns matched patterns into
// composite nodes; everything left as kOp follows the TVM-native CPU path.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ir/attrs.hpp"
#include "ir/op.hpp"
#include "support/status.hpp"
#include "tensor/tensor.hpp"

namespace htvm {

using NodeId = i32;
inline constexpr NodeId kInvalidNode = -1;

// Largest tensor a graph may describe, in elements: the text loader caps
// constants at it, and TryAddOp rejects any op whose inferred output
// exceeds it, so geometry no SoC can hold (an INT32_MAX padding) is a typed
// error at load instead of an allocation failure deep in the compiler.
inline constexpr i64 kMaxTensorElements = i64{1} << 26;

enum class NodeKind : u8 { kInput, kConstant, kOp, kComposite };

class Graph;

struct Node {
  NodeId id = kInvalidNode;
  NodeKind kind = NodeKind::kOp;
  std::string op;      // op name (kOp) or composite kind (kComposite)
  OpId op_id = OpId::kConv2d;  // the table row of `op` (kOp only)
  std::string name;    // diagnostic label
  std::vector<NodeId> inputs;
  AttrMap attrs;
  TensorType type;     // output type (inferred)
  Tensor value;        // payload for kConstant
  std::shared_ptr<const Graph> body;  // composite body (kComposite)

  bool Is(OpId id) const { return kind == NodeKind::kOp && op_id == id; }
  bool IsOp(const std::string& op_name) const {
    return kind == NodeKind::kOp && op == op_name;
  }
};

class Graph {
 public:
  Graph() = default;

  // --- construction ------------------------------------------------------
  NodeId AddInput(const std::string& name, TensorType type);
  NodeId AddConstant(Tensor value, const std::string& name = "");
  // Infers the output type via the op table; fatal on inference failure
  // (model-builder bug). Use TryAddOp for fallible construction; it also
  // rejects as InvalidArgument an input or output extent <= 0 and an output
  // type over kMaxTensorElements.
  NodeId AddOp(const std::string& op, std::vector<NodeId> inputs,
               AttrMap attrs = {}, const std::string& name = "");
  Result<NodeId> TryAddOp(const std::string& op, std::vector<NodeId> inputs,
                          AttrMap attrs = {}, const std::string& name = "");
  // Adds a composite node whose body is `body` (body inputs correspond 1:1,
  // in order, to `inputs`); the composite's output type is the body's single
  // output type.
  NodeId AddComposite(const std::string& composite_kind,
                      std::vector<NodeId> inputs,
                      std::shared_ptr<const Graph> body, AttrMap attrs = {});

  void SetOutputs(std::vector<NodeId> outputs);

  // --- access -------------------------------------------------------------
  const Node& node(NodeId id) const;
  Node& mutable_node(NodeId id);
  i64 NumNodes() const { return static_cast<i64>(nodes_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<NodeId>& inputs() const { return input_ids_; }
  const std::vector<NodeId>& outputs() const { return output_ids_; }

  // Number of consumers of each node (outputs count as one extra use).
  std::vector<i32> UseCounts() const;

  // Structural checks: input ids in range & preceding their consumers,
  // outputs set, types consistent with re-running inference.
  Status Validate() const;

 private:
  NodeId Append(Node node);

  std::vector<Node> nodes_;
  std::vector<NodeId> input_ids_;
  std::vector<NodeId> output_ids_;
};

// Renders the graph as readable text (one node per line) for logging/tests.
std::string GraphToString(const Graph& graph);

}  // namespace htvm
