#include "dory/layer_spec.hpp"

namespace htvm::dory {

const char* LayerKindName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConv2d: return "conv2d";
    case LayerKind::kDwConv2d: return "dwconv2d";
    case LayerKind::kDense: return "dense";
    case LayerKind::kAdd: return "add";
    case LayerKind::kMatmul: return "matmul";
  }
  return "?";
}

i64 AccelLayerSpec::WeightElems() const {
  switch (kind) {
    case LayerKind::kConv2d: return k * c * kh * kw;
    case LayerKind::kDwConv2d: return c * kh * kw;
    case LayerKind::kDense: return k * c;
    case LayerKind::kAdd: return 0;
    case LayerKind::kMatmul: return k * c;  // [N, K] weight, shared by rows
  }
  return 0;
}

i64 AccelLayerSpec::Macs() const {
  switch (kind) {
    case LayerKind::kConv2d: return k * c * oy * ox * kh * kw;
    case LayerKind::kDwConv2d: return c * oy * ox * kh * kw;
    case LayerKind::kDense: return k * c;
    case LayerKind::kAdd: return 0;  // adds are not MACs
    case LayerKind::kMatmul: return k * c * oy;  // N * K per output row
  }
  return 0;
}

WeightBias FindWeightBias(const Graph& body) {
  WeightBias found;
  for (const Node& n : body.nodes()) {
    if (n.Is(OpId::kConv2d) || n.Is(OpId::kDense) || n.Is(OpId::kMatmul)) {
      const Node& w = body.node(n.inputs[1]);
      if (w.kind == NodeKind::kConstant) found.weight = &w.value;
    }
    if (n.Is(OpId::kBiasAdd)) {
      const Node& b = body.node(n.inputs[1]);
      if (b.kind == NodeKind::kConstant) found.bias = &b.value;
    }
  }
  return found;
}

Result<AccelLayerSpec> AnalyzeAnchor(const Graph& g, const Node& anchor) {
  AccelLayerSpec spec;
  if (anchor.Is(OpId::kConv2d)) {
    const TensorType& data = g.node(anchor.inputs[0]).type;
    const TensorType& weight = g.node(anchor.inputs[1]).type;
    if (data.shape.rank() != 4 || data.shape[0] != 1) {
      return Status::Unsupported("conv2d: batch-1 NCHW required");
    }
    const i64 groups = anchor.attrs.GetInt("groups", 1);
    const bool depthwise =
        groups == data.shape[1] && weight.shape[1] == 1 && groups > 1;
    if (groups != 1 && !depthwise) {
      return Status::Unsupported("grouped conv unsupported");
    }
    spec.kind = depthwise ? LayerKind::kDwConv2d : LayerKind::kConv2d;
    spec.c = data.shape[1];
    spec.iy = data.shape[2];
    spec.ix = data.shape[3];
    spec.k = weight.shape[0];
    spec.kh = weight.shape[2];
    spec.kw = weight.shape[3];
    const auto strides = anchor.attrs.GetIntVec("strides", {1, 1});
    spec.sy = strides[0];
    spec.sx = strides[1];
    HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(anchor.attrs, "conv2d"));
    spec.pad_t = pad[0];
    spec.pad_l = pad[1];
    spec.pad_b = pad[2];
    spec.pad_r = pad[3];
    spec.oy = anchor.type.shape[2];
    spec.ox = anchor.type.shape[3];
    spec.weight_dtype = weight.dtype;
  } else if (anchor.Is(OpId::kDense)) {
    const TensorType& data = g.node(anchor.inputs[0]).type;
    const TensorType& weight = g.node(anchor.inputs[1]).type;
    if (data.shape[0] != 1) return Status::Unsupported("dense: batch 1 only");
    spec.kind = LayerKind::kDense;
    spec.c = data.shape[1];
    spec.k = weight.shape[0];
    spec.weight_dtype = weight.dtype;
  } else if (anchor.Is(OpId::kMatmul)) {
    const TensorType& data = g.node(anchor.inputs[0]).type;
    const Node& weight = g.node(anchor.inputs[1]);
    if (weight.kind != NodeKind::kConstant) {
      return Status::Unsupported("matmul: activation weights stay on CPU");
    }
    if (anchor.attrs.GetInt("transpose_b", 1) == 0) {
      return Status::Unsupported("matmul: accel path needs [N, K] weight");
    }
    if (data.shape.rank() != 2 || weight.type.shape.rank() != 2) {
      return Status::Unsupported("matmul: rank-2 operands required");
    }
    spec.kind = LayerKind::kMatmul;
    spec.c = data.shape[1];             // reduction K
    spec.k = weight.type.shape[0];      // output features N
    spec.oy = spec.iy = data.shape[0];  // rows M on the spatial axis
    spec.weight_dtype = weight.type.dtype;
  } else if (anchor.Is(OpId::kAdd)) {
    const TensorType& lhs = g.node(anchor.inputs[0]).type;
    spec.kind = LayerKind::kAdd;
    if (lhs.shape.rank() == 4) {
      spec.c = spec.k = lhs.shape[1];
      spec.iy = spec.oy = lhs.shape[2];
      spec.ix = spec.ox = lhs.shape[3];
    } else {
      spec.c = spec.k = lhs.shape.NumElements();
    }
  } else {
    return Status::Unsupported("unknown anchor op " + anchor.op);
  }
  return spec;
}

Result<AccelLayerSpec> AnalyzeCompositeBody(const Graph& body) {
  // Locate the accumulating anchor op.
  const Node* anchor = nullptr;
  for (const Node& n : body.nodes()) {
    if (n.Is(OpId::kConv2d) || n.Is(OpId::kDense) || n.Is(OpId::kAdd) ||
        n.Is(OpId::kMatmul)) {
      if (anchor != nullptr) {
        return Status::Unsupported("composite body has multiple anchors");
      }
      anchor = &n;
    }
  }
  if (anchor == nullptr) {
    return Status::Unsupported("composite body has no accelerator anchor op");
  }
  HTVM_ASSIGN_OR_RETURN(spec, AnalyzeAnchor(body, *anchor));
  if (body.outputs().empty()) {
    return Status::Unsupported("composite body has no output");
  }
  HTVM_RETURN_IF_ERROR(AnalyzeRequantChain(body, body.outputs()[0],
                                           anchor->id, &spec.requant));
  return spec;
}

Status AnalyzeRequantChain(const Graph& graph, NodeId root, NodeId anchor,
                           RequantParams* requant) {
  const auto producer = [&](const Node* n) -> const Node* {
    return n->inputs.empty() ? nullptr : &graph.node(n->inputs[0]);
  };
  const auto is_clip = [](const Node* n, i64 lo, i64 hi) {
    return n != nullptr && n->Is(OpId::kClip) &&
           n->attrs.GetInt("a_min", -128) == lo &&
           n->attrs.GetInt("a_max", 127) == hi;
  };
  RequantParams rq;
  const Node* n = &graph.node(root);
  if (n->Is(OpId::kClip)) {
    if (!is_clip(n, 0, 127)) {
      return Status::Unsupported("requant: activation clip must be [0, 127]");
    }
    rq.relu = true;
    n = producer(n);
  }
  if (n == nullptr || !n->Is(OpId::kCast) ||
      n->attrs.GetString("dtype", "int8") != "int8") {
    return Status::Unsupported("requant: cast to int8 required");
  }
  n = producer(n);
  if (!is_clip(n, -128, 127)) {
    return Status::Unsupported("requant: saturating clip must be [-128, 127]");
  }
  n = producer(n);
  if (n == nullptr || !n->Is(OpId::kRightShift) || n->inputs.size() != 2) {
    return Status::Unsupported("requant: right_shift required");
  }
  const Node& shift = graph.node(n->inputs[1]);
  if (shift.kind != NodeKind::kConstant) {
    return Status::Unsupported("right_shift amount must be constant");
  }
  std::vector<i64> shifts(static_cast<size_t>(shift.value.NumElements()));
  for (size_t i = 0; i < shifts.size(); ++i) {
    shifts[i] = shift.value.GetFlat(static_cast<i64>(i));
    if (shifts[i] < 0 || shifts[i] > 31) {
      return Status::Unsupported("right_shift amount outside [0, 31]");
    }
  }
  if (shifts.size() == 1) {
    rq.shift = shifts[0];
  } else {
    // Per-output-channel requantization (DIANA's output stage applies the
    // shift per channel, like real quantized models).
    rq.channel_shifts = std::move(shifts);
  }
  n = producer(n);
  if (n != nullptr && n->Is(OpId::kBiasAdd)) n = producer(n);
  if (n == nullptr || n->id != anchor) {
    return Status::Unsupported("requant chain does not end at the anchor");
  }
  *requant = std::move(rq);
  return Status::Ok();
}

}  // namespace htvm::dory
