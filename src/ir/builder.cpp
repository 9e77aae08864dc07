#include "ir/builder.hpp"

namespace htvm {

NodeId GraphBuilder::Input(const std::string& name, Shape shape,
                           DType dtype) {
  return graph_.AddInput(name, TensorType{std::move(shape), dtype});
}

NodeId GraphBuilder::Requant(NodeId acc, i64 shift, bool relu) {
  const NodeId shift_c = graph_.AddConstant(
      Tensor::FromInt32(Shape{1}, {static_cast<i32>(shift)}), "shift");
  NodeId v = graph_.AddOp("right_shift", {acc, shift_c});
  v = graph_.AddOp("clip", {v},
                   AttrMap{{"a_min", i64{-128}}, {"a_max", i64{127}}});
  v = graph_.AddOp("cast", {v}, AttrMap{{"dtype", std::string("int8")}});
  if (relu) {
    // The optional activation clip after the cast — Listing 1's
    // `cast.optional(is_op("clip"))`.
    v = graph_.AddOp("clip", {v},
                     AttrMap{{"a_min", i64{0}}, {"a_max", i64{127}}});
  }
  return v;
}

NodeId GraphBuilder::RequantPerChannel(NodeId acc, std::vector<i64> shifts,
                                       bool relu) {
  Tensor shift_t(Shape{static_cast<i64>(shifts.size())}, DType::kInt32);
  for (size_t i = 0; i < shifts.size(); ++i) {
    shift_t.SetFlat(static_cast<i64>(i), shifts[i]);
  }
  const NodeId shift_c = graph_.AddConstant(std::move(shift_t), "ch_shift");
  NodeId v = graph_.AddOp("right_shift", {acc, shift_c});
  v = graph_.AddOp("clip", {v},
                   AttrMap{{"a_min", i64{-128}}, {"a_max", i64{127}}});
  v = graph_.AddOp("cast", {v}, AttrMap{{"dtype", std::string("int8")}});
  if (relu) {
    v = graph_.AddOp("clip", {v},
                     AttrMap{{"a_min", i64{0}}, {"a_max", i64{127}}});
  }
  return v;
}

NodeId GraphBuilder::ConvBlock(NodeId data, const ConvSpec& spec,
                               const std::string& name) {
  const TensorType& in = graph_.node(data).type;
  HTVM_CHECK_MSG(in.shape.rank() == 4, "ConvBlock needs NCHW input");
  const i64 in_c = in.shape[1];
  const i64 groups = spec.depthwise ? in_c : 1;
  const i64 out_c = spec.depthwise ? in_c : spec.out_channels;
  Tensor weight = Tensor::Random(
      Shape{out_c, in_c / groups, spec.kernel_h, spec.kernel_w},
      spec.weight_dtype, rng_);
  const NodeId w = graph_.AddConstant(std::move(weight), name + ".weight");
  const NodeId conv = graph_.AddOp(
      "nn.conv2d", {data, w},
      AttrMap{{"strides", std::vector<i64>{spec.stride_h, spec.stride_w}},
              {"padding", std::vector<i64>{spec.pad_t, spec.pad_l,
                                           spec.pad_b, spec.pad_r}},
              {"groups", groups}},
      name);
  Tensor bias = Tensor::Random(Shape{out_c}, DType::kInt32, rng_);
  const NodeId b = graph_.AddConstant(std::move(bias), name + ".bias");
  const NodeId biased =
      graph_.AddOp("nn.bias_add", {conv, b}, AttrMap{{"axis", i64{1}}});
  if (spec.per_channel_requant) {
    std::vector<i64> shifts(static_cast<size_t>(out_c));
    for (i64& sh : shifts) sh = spec.shift + rng_.UniformInt(-1, 1);
    return RequantPerChannel(biased, std::move(shifts), spec.relu);
  }
  return Requant(biased, spec.shift, spec.relu);
}

NodeId GraphBuilder::DenseBlock(NodeId data, i64 out_features, bool relu,
                                i64 shift, DType weight_dtype,
                                const std::string& name) {
  const TensorType& in = graph_.node(data).type;
  HTVM_CHECK_MSG(in.shape.rank() == 2, "DenseBlock needs rank-2 input");
  Tensor weight =
      Tensor::Random(Shape{out_features, in.shape[1]}, weight_dtype, rng_);
  const NodeId w = graph_.AddConstant(std::move(weight), name + ".weight");
  const NodeId dense = graph_.AddOp("nn.dense", {data, w}, {}, name);
  Tensor bias = Tensor::Random(Shape{out_features}, DType::kInt32, rng_);
  const NodeId b = graph_.AddConstant(std::move(bias), name + ".bias");
  const NodeId biased =
      graph_.AddOp("nn.bias_add", {dense, b}, AttrMap{{"axis", i64{1}}});
  return Requant(biased, shift, relu);
}

NodeId GraphBuilder::MatmulBlock(NodeId data, i64 out_features, bool relu,
                                 i64 shift, const std::string& name) {
  // Copy the geometry out: AddConstant/AddOp may reallocate the node
  // vector, so a reference into it would dangle.
  const i64 rank = graph_.node(data).type.shape.rank();
  HTVM_CHECK_MSG(rank >= 2, "MatmulBlock needs rank >= 2 input");
  const i64 k = graph_.node(data).type.shape[rank - 1];
  Tensor weight = Tensor::Random(Shape{out_features, k}, DType::kInt8, rng_);
  const NodeId w = graph_.AddConstant(std::move(weight), name + ".weight");
  const NodeId mm = graph_.AddOp("matmul", {data, w},
                                 AttrMap{{"transpose_b", i64{1}}}, name);
  Tensor bias = Tensor::Random(Shape{out_features}, DType::kInt32, rng_);
  const NodeId b = graph_.AddConstant(std::move(bias), name + ".bias");
  const NodeId biased =
      graph_.AddOp("nn.bias_add", {mm, b}, AttrMap{{"axis", rank - 1}});
  return Requant(biased, shift, relu);
}

NodeId GraphBuilder::Transpose(NodeId data, std::vector<i64> axes) {
  return graph_.AddOp("transpose", {data},
                      AttrMap{{"axes", std::move(axes)}});
}

NodeId GraphBuilder::Reshape(NodeId data, std::vector<i64> new_shape) {
  return graph_.AddOp("reshape", {data},
                      AttrMap{{"new_shape", std::move(new_shape)}});
}

NodeId GraphBuilder::LayerNorm(NodeId data) {
  return graph_.AddOp("nn.layernorm", {data});
}

NodeId GraphBuilder::Gelu(NodeId data) {
  return graph_.AddOp("nn.gelu", {data});
}

NodeId GraphBuilder::AddBlock(NodeId lhs, NodeId rhs, bool relu, i64 shift) {
  const NodeId sum = graph_.AddOp("add", {lhs, rhs});
  return Requant(sum, shift, relu);
}

NodeId GraphBuilder::GlobalAvgPool(NodeId data) {
  return graph_.AddOp("nn.global_avg_pool2d", {data});
}

NodeId GraphBuilder::MaxPool(NodeId data, i64 pool, i64 stride, i64 pad) {
  return graph_.AddOp(
      "nn.max_pool2d", {data},
      AttrMap{{"pool_size", std::vector<i64>{pool, pool}},
              {"strides", std::vector<i64>{stride, stride}},
              {"padding", std::vector<i64>{pad, pad, pad, pad}}});
}

NodeId GraphBuilder::Flatten(NodeId data) {
  return graph_.AddOp("nn.flatten", {data});
}

NodeId GraphBuilder::Softmax(NodeId data) {
  return graph_.AddOp("nn.softmax", {data});
}

Graph GraphBuilder::Finish(NodeId output) {
  graph_.SetOutputs({output});
  return std::move(graph_);
}

ConvSpec WithSamePadding(ConvSpec spec, i64 in_h, i64 in_w) {
  // TF 'SAME': total pad = (ceil(in/stride)-1)*stride + k - in, split with
  // the extra pixel at bottom/right.
  const auto pad_for = [](i64 in, i64 k, i64 s, i64* begin, i64* end) {
    const i64 out = (in + s - 1) / s;
    const i64 total = std::max<i64>(0, (out - 1) * s + k - in);
    *begin = total / 2;
    *end = total - total / 2;
  };
  pad_for(in_h, spec.kernel_h, spec.stride_h, &spec.pad_t, &spec.pad_b);
  pad_for(in_w, spec.kernel_w, spec.stride_w, &spec.pad_l, &spec.pad_r);
  return spec;
}

}  // namespace htvm
