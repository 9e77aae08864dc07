#include "ir/op.hpp"

#include "support/string_utils.hpp"

namespace htvm {

std::string TensorType::ToString() const {
  return std::string(DTypeName(dtype)) + shape.ToString();
}

OpRegistry& OpRegistry::Global() {
  static OpRegistry registry;
  return registry;
}

void OpRegistry::Register(OpDef def) {
  std::lock_guard<std::mutex> lock(mu_);
  ops_[def.name] = std::move(def);
}

const OpDef* OpRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ops_.find(name);
  return it == ops_.end() ? nullptr : &it->second;
}

i64 ConvOutDim(i64 in, i64 kernel, i64 pad_begin, i64 pad_end, i64 stride) {
  HTVM_CHECK(stride > 0 && kernel > 0);
  return (in + pad_begin + pad_end - kernel) / stride + 1;
}

namespace {

Status ExpectRank(const TensorType& t, i64 rank, const char* what) {
  if (t.shape.rank() != rank) {
    return Status::InvalidArgument(
        StrFormat("%s: expected rank %lld, got %s", what,
                  static_cast<long long>(rank), t.ToString().c_str()));
  }
  return Status::Ok();
}

// Normalizes padding attr: accepts [p] (all sides), [py, px], or
// [pt, pl, pb, pr]; returns the 4-element form.
Result<std::vector<i64>> NormalizePadding(const AttrMap& attrs,
                                          const char* op) {
  std::vector<i64> p = attrs.GetIntVec("padding", {0, 0, 0, 0});
  for (i64 v : p) {
    if (v < 0) {
      return Status::InvalidArgument(StrFormat("%s: negative padding", op));
    }
  }
  if (p.size() == 1) return std::vector<i64>{p[0], p[0], p[0], p[0]};
  if (p.size() == 2) return std::vector<i64>{p[0], p[1], p[0], p[1]};
  if (p.size() != 4) {
    return Status::InvalidArgument(
        StrFormat("%s: padding must have 1, 2 or 4 entries", op));
  }
  return p;
}

// A [y, x] window attr (strides, pool_size): exactly two values, both > 0.
// ConvOutDim and the kernels index it unguarded, so anything else is a
// typed error here.
Result<std::vector<i64>> WindowPair(const AttrMap& attrs, const char* key,
                                    std::vector<i64> fallback,
                                    const char* op) {
  std::vector<i64> v = attrs.GetIntVec(key, std::move(fallback));
  if (v.size() != 2 || v[0] <= 0 || v[1] <= 0) {
    return Status::InvalidArgument(
        StrFormat("%s: %s must be 2 values > 0", op, key));
  }
  return v;
}

Result<TensorType> InferConv2d(std::span<const TensorType> in,
                               const AttrMap& attrs) {
  HTVM_RETURN_IF_ERROR(ExpectRank(in[0], 4, "conv2d data"));
  HTVM_RETURN_IF_ERROR(ExpectRank(in[1], 4, "conv2d weight"));
  const Shape& d = in[0].shape;
  const Shape& w = in[1].shape;  // [K, C/groups, kh, kw]
  const i64 groups = attrs.GetInt("groups", 1);
  if (groups <= 0 || d[1] % groups != 0 || w[0] % groups != 0) {
    return Status::InvalidArgument("conv2d: bad groups");
  }
  if (w[1] != d[1] / groups) {
    return Status::InvalidArgument(StrFormat(
        "conv2d: weight input channels %lld != data channels %lld / groups %lld",
        static_cast<long long>(w[1]), static_cast<long long>(d[1]),
        static_cast<long long>(groups)));
  }
  if (w[2] <= 0 || w[3] <= 0) {
    return Status::InvalidArgument("conv2d: kernel dims must be > 0");
  }
  HTVM_ASSIGN_OR_RETURN(strides,
                        WindowPair(attrs, "strides", {1, 1}, "conv2d"));
  HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(attrs, "conv2d"));
  const i64 oh = ConvOutDim(d[2], w[2], pad[0], pad[2], strides[0]);
  const i64 ow = ConvOutDim(d[3], w[3], pad[1], pad[3], strides[1]);
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("conv2d: non-positive output dims");
  }
  return TensorType{Shape{d[0], w[0], oh, ow}, DType::kInt32};
}

Result<TensorType> InferDense(std::span<const TensorType> in,
                              const AttrMap&) {
  HTVM_RETURN_IF_ERROR(ExpectRank(in[0], 2, "dense data"));
  HTVM_RETURN_IF_ERROR(ExpectRank(in[1], 2, "dense weight"));
  if (in[0].shape[1] != in[1].shape[1]) {
    return Status::InvalidArgument("dense: reduction dims differ");
  }
  return TensorType{Shape{in[0].shape[0], in[1].shape[0]}, DType::kInt32};
}

Result<TensorType> InferMatmul(std::span<const TensorType> in,
                               const AttrMap& attrs) {
  // matmul(a, b): a is [..., M, K]; b is [N, K] ([K, N] with
  // transpose_b=0). A rank-2 b broadcasts over a's batch dims; otherwise
  // batch dims must match exactly. int8 x int8 accumulates into int32,
  // mirroring nn.dense.
  const Shape& a = in[0].shape;
  const Shape& b = in[1].shape;
  if (a.rank() < 2) return Status::InvalidArgument("matmul: lhs rank < 2");
  if (b.rank() < 2) return Status::InvalidArgument("matmul: rhs rank < 2");
  const bool transpose_b = attrs.GetInt("transpose_b", 1) != 0;
  const i64 m = a[a.rank() - 2];
  const i64 ka = a[a.rank() - 1];
  const i64 kb = transpose_b ? b[b.rank() - 1] : b[b.rank() - 2];
  const i64 n = transpose_b ? b[b.rank() - 2] : b[b.rank() - 1];
  if (ka != kb) {
    return Status::InvalidArgument(
        StrFormat("matmul: reduction dims differ (%lld vs %lld)",
                  static_cast<long long>(ka), static_cast<long long>(kb)));
  }
  std::vector<i64> out_dims;
  for (i64 i = 0; i < a.rank() - 2; ++i) out_dims.push_back(a[i]);
  if (b.rank() > 2) {
    if (b.rank() != a.rank()) {
      return Status::InvalidArgument("matmul: batch ranks differ");
    }
    for (i64 i = 0; i < b.rank() - 2; ++i) {
      if (b[i] != a[i]) {
        return Status::InvalidArgument("matmul: batch dims differ");
      }
    }
  }
  out_dims.push_back(m);
  out_dims.push_back(n);
  const DType out =
      (in[0].dtype == DType::kInt8 && in[1].dtype == DType::kInt8)
          ? DType::kInt32
          : in[0].dtype;
  return TensorType{Shape(out_dims), out};
}

Result<TensorType> InferTranspose(std::span<const TensorType> in,
                                  const AttrMap& attrs) {
  const Shape& d = in[0].shape;
  std::vector<i64> axes = attrs.GetIntVec("axes");
  if (static_cast<i64>(axes.size()) != d.rank()) {
    return Status::InvalidArgument("transpose: axes size != rank");
  }
  std::vector<bool> seen(axes.size(), false);
  std::vector<i64> out_dims(axes.size());
  for (size_t i = 0; i < axes.size(); ++i) {
    const i64 ax = axes[i];
    if (ax < 0 || ax >= d.rank() || seen[static_cast<size_t>(ax)]) {
      return Status::InvalidArgument("transpose: bad axes permutation");
    }
    seen[static_cast<size_t>(ax)] = true;
    out_dims[i] = d[ax];
  }
  return TensorType{Shape(out_dims), in[0].dtype};
}

Result<TensorType> InferBiasAdd(std::span<const TensorType> in,
                                const AttrMap& attrs) {
  const i64 axis = attrs.GetInt("axis", 1);
  if (axis < 0 || axis >= in[0].shape.rank()) {
    return Status::InvalidArgument("bias_add: axis out of range");
  }
  HTVM_RETURN_IF_ERROR(ExpectRank(in[1], 1, "bias"));
  if (in[1].shape[0] != in[0].shape[axis]) {
    return Status::InvalidArgument("bias_add: bias length != channel dim");
  }
  return TensorType{in[0].shape, in[0].dtype};
}

Result<TensorType> InferRightShift(std::span<const TensorType> in,
                                   const AttrMap&) {
  const i64 n = in[1].shape.NumElements();
  // Scalar (uniform) or one shift per channel (dim 1 of the data).
  const bool per_channel =
      in[0].shape.rank() >= 2 && n == in[0].shape[1];
  if (n != 1 && !per_channel) {
    return Status::InvalidArgument(
        "right_shift: shift must be scalar or per-channel");
  }
  return TensorType{in[0].shape, in[0].dtype};
}

Result<TensorType> InferSameType(std::span<const TensorType> in,
                                 const AttrMap&) {
  return TensorType{in[0].shape, in[0].dtype};
}

Result<TensorType> InferCast(std::span<const TensorType> in,
                             const AttrMap& attrs) {
  DType dtype;
  if (!ParseDType(attrs.GetString("dtype", "int8"), &dtype)) {
    return Status::InvalidArgument("cast: unknown dtype attr");
  }
  return TensorType{in[0].shape, dtype};
}

Result<TensorType> InferAdd(std::span<const TensorType> in, const AttrMap&) {
  if (!(in[0].shape == in[1].shape)) {
    return Status::InvalidArgument("add: shapes differ");
  }
  // Residual adds on int8 activations promote to the int32 accumulator
  // domain; a requant chain narrows back to int8 (mirrors quantized Relay).
  const DType out = (in[0].dtype == DType::kInt8 && in[1].dtype == DType::kInt8)
                        ? DType::kInt32
                        : in[0].dtype;
  return TensorType{in[0].shape, out};
}

Result<TensorType> InferPool2d(std::span<const TensorType> in,
                               const AttrMap& attrs) {
  HTVM_RETURN_IF_ERROR(ExpectRank(in[0], 4, "pool data"));
  const Shape& d = in[0].shape;
  HTVM_ASSIGN_OR_RETURN(pool,
                        WindowPair(attrs, "pool_size", {2, 2}, "pool2d"));
  HTVM_ASSIGN_OR_RETURN(strides,
                        WindowPair(attrs, "strides", pool, "pool2d"));
  HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(attrs, "pool2d"));
  const i64 oh = ConvOutDim(d[2], pool[0], pad[0], pad[2], strides[0]);
  const i64 ow = ConvOutDim(d[3], pool[1], pad[1], pad[3], strides[1]);
  if (oh <= 0 || ow <= 0) {
    return Status::InvalidArgument("pool2d: non-positive output dims");
  }
  return TensorType{Shape{d[0], d[1], oh, ow}, in[0].dtype};
}

Result<TensorType> InferGlobalAvgPool(std::span<const TensorType> in,
                                      const AttrMap&) {
  HTVM_RETURN_IF_ERROR(ExpectRank(in[0], 4, "global pool data"));
  const Shape& d = in[0].shape;
  return TensorType{Shape{d[0], d[1], 1, 1}, in[0].dtype};
}

Result<TensorType> InferReshape(std::span<const TensorType> in,
                                const AttrMap& attrs) {
  std::vector<i64> dims = attrs.GetIntVec("new_shape");
  i64 known = 1;
  i64 infer_at = -1;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == -1) {
      if (infer_at >= 0) return Status::InvalidArgument("reshape: two -1 dims");
      infer_at = static_cast<i64>(i);
    } else {
      known *= dims[i];
    }
  }
  const i64 total = in[0].shape.NumElements();
  if (infer_at >= 0) {
    if (known == 0 || total % known != 0) {
      return Status::InvalidArgument("reshape: cannot infer -1 dim");
    }
    dims[static_cast<size_t>(infer_at)] = total / known;
  } else if (known != total) {
    return Status::InvalidArgument("reshape: element count mismatch");
  }
  return TensorType{Shape(dims), in[0].dtype};
}

Result<TensorType> InferPad(std::span<const TensorType> in,
                            const AttrMap& attrs) {
  HTVM_RETURN_IF_ERROR(ExpectRank(in[0], 4, "pad data"));
  const Shape& d = in[0].shape;
  std::vector<i64> p = attrs.GetIntVec("pad_width", {0, 0, 0, 0});
  if (p.size() != 4) {
    return Status::InvalidArgument("pad: pad_width must be [t, l, b, r]");
  }
  if (p[0] < 0 || p[1] < 0 || p[2] < 0 || p[3] < 0) {
    return Status::InvalidArgument("pad: negative padding");
  }
  return TensorType{Shape{d[0], d[1], d[2] + p[0] + p[2], d[3] + p[1] + p[3]},
                    in[0].dtype};
}

Result<TensorType> InferFlatten(std::span<const TensorType> in,
                                const AttrMap&) {
  const Shape& d = in[0].shape;
  if (d.rank() < 1) return Status::InvalidArgument("flatten: rank 0");
  i64 rest = 1;
  for (i64 i = 1; i < d.rank(); ++i) rest *= d[i];
  return TensorType{Shape{d[0], rest}, in[0].dtype};
}

}  // namespace

void RegisterCoreOps() {
  // Magic-static initialization is thread-safe (C++11 [stmt.dcl]p4), unlike
  // the naive `static bool done` flag this replaces: two threads building
  // their first graph concurrently raced on the flag and on the registry map.
  static const bool once = [] {
    auto& r = OpRegistry::Global();
    r.Register({"nn.conv2d", 2, InferConv2d});
    r.Register({"nn.dense", 2, InferDense});
    r.Register({"nn.bias_add", 2, InferBiasAdd});
    r.Register({"right_shift", 2, InferRightShift});
    r.Register({"clip", 1, InferSameType});
    r.Register({"cast", 1, InferCast});
    r.Register({"nn.relu", 1, InferSameType});
    r.Register({"add", 2, InferAdd});
    r.Register({"nn.avg_pool2d", 1, InferPool2d});
    r.Register({"nn.max_pool2d", 1, InferPool2d});
    r.Register({"nn.global_avg_pool2d", 1, InferGlobalAvgPool});
    r.Register({"nn.softmax", 1, InferSameType});
    r.Register({"matmul", 2, InferMatmul});
    r.Register({"transpose", 1, InferTranspose});
    r.Register({"nn.layernorm", 1, InferSameType});
    r.Register({"nn.gelu", 1, InferSameType});
    r.Register({"reshape", 1, InferReshape});
    r.Register({"nn.flatten", 1, InferFlatten});
    r.Register({"nn.pad", 1, InferPad});
    return true;
  }();
  (void)once;
}

}  // namespace htvm
