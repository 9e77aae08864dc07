// DORY layer analyzer: extracts the geometry of an offloadable layer from a
// matched composite body (Sec. III-B, step "DORY's layer analyzer").
//
// A composite body is the fused op chain the pattern matcher captured
// (Conv2D/Dense/Add -> BiasAdd -> right_shift -> clip -> cast [-> clip]).
// The analyzer reduces it to the flat AccelLayerSpec the tiler and the cost
// models consume.
#pragma once

#include "ir/graph.hpp"
#include "tensor/quantize.hpp"

namespace htvm::dory {

// kMatmul is the transformer projection GEMM [M, K] x [N, K]^T -> [M, N];
// the tiler maps M onto the spatial axis (oy, iy), K onto the channel
// reduction (c) and N onto the output channels (k), so (M, N, K) tile
// shapes reuse the conv tiling machinery unchanged (ox == ix == 1).
enum class LayerKind : u8 { kConv2d, kDwConv2d, kDense, kAdd, kMatmul };

const char* LayerKindName(LayerKind kind);

struct AccelLayerSpec {
  LayerKind kind = LayerKind::kConv2d;

  // Input geometry (batch is always 1 on DIANA).
  i64 c = 1, iy = 1, ix = 1;
  // Output geometry.
  i64 k = 1, oy = 1, ox = 1;
  // Kernel / stride / padding (conv kinds only).
  i64 kh = 1, kw = 1, sy = 1, sx = 1;
  i64 pad_t = 0, pad_l = 0, pad_b = 0, pad_r = 0;

  DType weight_dtype = DType::kInt8;
  RequantParams requant;

  bool operator==(const AccelLayerSpec&) const = default;
  i64 InputBytes() const { return c * iy * ix; }    // int8 activations
  i64 OutputBytes() const { return k * oy * ox; }
  i64 WeightElems() const;
  i64 Macs() const;
};

// The one reader of a layer's geometry: `anchor` is a conv2d (dense or
// depthwise), dense, matmul or add node of `g`, read from its operand and
// output types and attributes; `requant` stays at its default. Fails with
// Unsupported for layers no accelerator takes (batch > 1, grouped conv, a
// non-constant or [K, N] matmul weight, rank > 2 matmul operands). Dispatch
// logs the message as the layer's CPU-fallback reason, so it reaches the
// artifact.
Result<AccelLayerSpec> AnalyzeAnchor(const Graph& g, const Node& anchor);

// Analyzes a composite body: its single anchor (AnalyzeAnchor) plus the
// requant chain that ends at the body output (AnalyzeRequantChain). Fails
// with Unsupported when the body is not one of the known accelerator chains
// (the dispatcher then rejects the match and the ops stay on the CPU path).
Result<AccelLayerSpec> AnalyzeCompositeBody(const Graph& body);

// Reads the requant epilogue that `root` ends, walking its inputs back to
// `anchor`. Only the canonical chain is accepted:
//   anchor [-> nn.bias_add] -> right_shift (constant shifts in [0, 31])
//     -> clip [-128, 127] -> cast int8 [-> clip [0, 127]]
// since that is what the accelerator output stage (RequantizeRow)
// computes. Any other op, bound or dtype is Unsupported, so the layer stays
// on the CPU (at dispatch) or the artifact is refused (at load).
Status AnalyzeRequantChain(const Graph& graph, NodeId root, NodeId anchor,
                           RequantParams* requant);

// The constant weight (conv2d/dense/matmul) and bias (bias_add) inside a
// composite body; nullptr where the body has none.
struct WeightBias {
  const Tensor* weight = nullptr;
  const Tensor* bias = nullptr;
};
WeightBias FindWeightBias(const Graph& body);

}  // namespace htvm::dory
