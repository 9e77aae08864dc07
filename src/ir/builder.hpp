// GraphBuilder: convenience layer for constructing quantized network graphs.
//
// Quantized graphs repeat the same accumulate->requantize motif (Listing 1 of
// the paper): Conv2D/Dense -> BiasAdd -> right_shift -> clip -> cast(int8)
// [-> clip as ReLU]. The builder emits exactly those op chains so the
// pattern matcher sees graphs shaped like real TVM Relay imports.
#pragma once

#include "ir/graph.hpp"
#include "support/rng.hpp"

namespace htvm {

struct ConvSpec {
  i64 out_channels = 0;
  i64 kernel_h = 3, kernel_w = 3;
  i64 stride_h = 1, stride_w = 1;
  // Padding [top, left, bottom, right]; helper MakeSamePadding fills it.
  i64 pad_t = 0, pad_l = 0, pad_b = 0, pad_r = 0;
  bool depthwise = false;   // groups == in_channels, one filter per channel
  bool relu = true;
  i64 shift = 7;            // requantization right-shift amount
  // Per-output-channel requantization (real quantized models): shifts drawn
  // from [shift-1, shift+1] per channel.
  bool per_channel_requant = false;
  DType weight_dtype = DType::kInt8;  // kTernary routes to the analog accel
};

class GraphBuilder {
 public:
  // `seed` drives deterministic synthetic weights.
  explicit GraphBuilder(u64 seed = 1) : rng_(seed) {}

  Graph& graph() { return graph_; }

  NodeId Input(const std::string& name, Shape shape,
               DType dtype = DType::kInt8);

  // Conv/dense blocks with synthetic constants and the full requant chain.
  NodeId ConvBlock(NodeId data, const ConvSpec& spec,
                   const std::string& name = "");
  NodeId DenseBlock(NodeId data, i64 out_features, bool relu, i64 shift = 7,
                    DType weight_dtype = DType::kInt8,
                    const std::string& name = "");

  // Residual add of two int8 tensors followed by requant back to int8.
  NodeId AddBlock(NodeId lhs, NodeId rhs, bool relu = true, i64 shift = 0);

  // Raw requant chain on an int32 value: right_shift -> clip -> cast(int8)
  // [-> clip(0,127) when relu].
  NodeId Requant(NodeId acc, i64 shift, bool relu);

  // Per-channel variant: one shift per output channel.
  NodeId RequantPerChannel(NodeId acc, std::vector<i64> shifts, bool relu);

  NodeId GlobalAvgPool(NodeId data);
  NodeId MaxPool(NodeId data, i64 pool, i64 stride, i64 pad = 0);
  NodeId Flatten(NodeId data);
  NodeId Softmax(NodeId data);

  // Transformer-workload helpers. MatmulBlock is the dense-style
  // constant-weight projection: matmul([.., M, K] x [N, K]) -> bias_add ->
  // requant, the chain the `diana.matmul` pattern matches.
  NodeId MatmulBlock(NodeId data, i64 out_features, bool relu = false,
                     i64 shift = 7, const std::string& name = "");
  NodeId Transpose(NodeId data, std::vector<i64> axes);
  NodeId Reshape(NodeId data, std::vector<i64> new_shape);
  NodeId LayerNorm(NodeId data);
  NodeId Gelu(NodeId data);

  // Finalizes with a single output.
  Graph Finish(NodeId output);

 private:
  Graph graph_;
  Rng rng_;
};

// Fills pad fields of `spec` for 'SAME' conv semantics at stride 1 (and the
// usual TF asymmetric padding for stride 2).
ConvSpec WithSamePadding(ConvSpec spec, i64 in_h, i64 in_w);

}  // namespace htvm
