#include "hw/cpu.hpp"

namespace htvm::hw {

OpWork ComputeOpWork(const Graph& graph, const Node& node) {
  OpWork w;
  w.out_elems = node.type.shape.NumElements();
  if (node.op == "nn.conv2d") {
    const TensorType& weight = graph.node(node.inputs[1]).type;
    const i64 groups = node.attrs.GetInt("groups", 1);
    const Shape& ws = weight.shape;  // [K, C/g, kh, kw]
    w.macs = w.out_elems * ws[1] * ws[2] * ws[3];
    w.is_dwconv = groups > 1 && ws[1] == 1;
  } else if (node.op == "nn.dense") {
    const TensorType& weight = graph.node(node.inputs[1]).type;
    w.macs = w.out_elems * weight.shape[1];
  } else if (node.op == "matmul") {
    // Reduction depth is the last axis of the lhs regardless of the rhs
    // layout (transpose_b only swaps which rhs axis it contracts with).
    const Shape& lhs = graph.node(node.inputs[0]).type.shape;
    w.macs = w.out_elems * lhs[lhs.rank() - 1];
  }
  return w;
}

i64 CpuOpCycles(const CpuConfig& cfg, const Graph& graph, const Node& node) {
  const OpWork w = ComputeOpWork(graph, node);
  const auto cycles = [](double c) { return static_cast<i64>(c + 0.5); };
  if (node.op == "nn.conv2d") {
    const double per_mac =
        w.is_dwconv ? cfg.dwconv_cycles_per_mac : cfg.conv_cycles_per_mac;
    return cycles(static_cast<double>(w.macs) * per_mac);
  }
  if (node.op == "nn.dense" || node.op == "matmul") {
    return cycles(static_cast<double>(w.macs) * cfg.dense_cycles_per_mac);
  }
  if (node.op == "nn.softmax" || node.op == "nn.layernorm" ||
      node.op == "nn.gelu") {
    // The transcendental-flavored activations share the softmax rate: a
    // table/fixed-point inner loop over the output elements.
    return cycles(static_cast<double>(w.out_elems) *
                  cfg.softmax_cycles_per_elem);
  }
  if (node.op == "transpose") {
    // Pure data movement, strided reads: pool-class per-element cost.
    return cycles(static_cast<double>(w.out_elems) *
                  cfg.pool_cycles_per_elem);
  }
  if (node.op == "nn.avg_pool2d" || node.op == "nn.max_pool2d" ||
      node.op == "nn.global_avg_pool2d") {
    // Pool cost scales with the elements *read*, not produced.
    const i64 in_elems = graph.node(node.inputs[0]).type.shape.NumElements();
    return cycles(static_cast<double>(in_elems) * cfg.pool_cycles_per_elem);
  }
  if (node.op == "reshape" || node.op == "nn.flatten") {
    return 0;  // layout no-op in C-contiguous memory
  }
  // add / clip / cast / right_shift / bias_add / relu standalone.
  return cycles(static_cast<double>(w.out_elems) *
                cfg.elemwise_cycles_per_elem);
}

i64 CpuFusedEpilogueCycles(const CpuConfig& cfg, const Node& node) {
  if (node.op == "reshape" || node.op == "nn.flatten") return 0;
  const i64 elems = node.type.shape.NumElements();
  return static_cast<i64>(static_cast<double>(elems) *
                              cfg.requant_cycles_per_elem +
                          0.5);
}

}  // namespace htvm::hw
