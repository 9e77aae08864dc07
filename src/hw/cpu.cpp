#include "hw/cpu.hpp"

namespace htvm::hw {

OpWork ComputeOpWork(const Graph& graph, const Node& node) {
  OpWork w;
  w.out_elems = node.type.shape.NumElements();
  if (node.Is(OpId::kConv2d)) {
    const TensorType& weight = graph.node(node.inputs[1]).type;
    const i64 groups = node.attrs.GetInt("groups", 1);
    const Shape& ws = weight.shape;  // [K, C/g, kh, kw]
    w.macs = w.out_elems * ws[1] * ws[2] * ws[3];
    w.is_dwconv = groups > 1 && ws[1] == 1;
  } else if (node.Is(OpId::kDense)) {
    const TensorType& weight = graph.node(node.inputs[1]).type;
    w.macs = w.out_elems * weight.shape[1];
  } else if (node.Is(OpId::kMatmul)) {
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
  const auto per_elem = [&](double rate) {
    return cycles(static_cast<double>(w.out_elems) * rate);
  };
  switch (node.op_id) {
    case OpId::kConv2d:
      return cycles(static_cast<double>(w.macs) *
                    (w.is_dwconv ? cfg.dwconv_cycles_per_mac
                                 : cfg.conv_cycles_per_mac));
    case OpId::kDense:
    case OpId::kMatmul:
      return cycles(static_cast<double>(w.macs) * cfg.dense_cycles_per_mac);
    // The transcendental-flavored activations share the softmax rate: a
    // table/fixed-point inner loop over the output elements.
    case OpId::kSoftmax:
    case OpId::kLayerNorm:
    case OpId::kGelu: return per_elem(cfg.softmax_cycles_per_elem);
    // Pure data movement, strided reads: pool-class per-element cost.
    case OpId::kTranspose: return per_elem(cfg.pool_cycles_per_elem);
    // Pool cost scales with the elements *read*, not produced.
    case OpId::kAvgPool2d:
    case OpId::kMaxPool2d:
    case OpId::kGlobalAvgPool2d:
      return cycles(
          static_cast<double>(
              graph.node(node.inputs[0]).type.shape.NumElements()) *
          cfg.pool_cycles_per_elem);
    // Layout no-ops in C-contiguous memory.
    case OpId::kReshape:
    case OpId::kFlatten: return 0;
    // Standalone elementwise ops, and a pad's copy into the bigger plane.
    case OpId::kAdd:
    case OpId::kClip:
    case OpId::kCast:
    case OpId::kRightShift:
    case OpId::kBiasAdd:
    case OpId::kRelu:
    case OpId::kPad: return per_elem(cfg.elemwise_cycles_per_elem);
  }
  HTVM_UNREACHABLE("bad op id");
}

i64 CpuFusedEpilogueCycles(const CpuConfig& cfg, const Node& node) {
  if (node.Is(OpId::kReshape) || node.Is(OpId::kFlatten)) return 0;
  const i64 elems = node.type.shape.NumElements();
  return static_cast<i64>(static_cast<double>(elems) *
                              cfg.requant_cycles_per_elem +
                          0.5);
}

}  // namespace htvm::hw
