// The IR's op vocabulary: one constant table of ops with shape/type
// inference, one OpId per row.
//
// The vocabulary mirrors the Relay ops that appear in quantized MLPerf Tiny
// graphs and in the paper's Listing 1 pattern, plus the transformer block's
// ops. Arity in brackets:
//
//   nn.conv2d      [2] int8 x int8/ternary -> int32, attrs
//                  strides/padding/groups
//   nn.dense       [2] int8 x int8/ternary -> int32 (FC)
//   nn.bias_add    [2] int32 + int32 bias (per output channel) -> int32
//   right_shift    [2] int32 x scalar or per-channel const -> int32
//                  (requant shift, rounding)
//   clip           [1] saturation bounds (a_min, a_max)
//   cast           [1] dtype change (requant narrows to int8)
//   nn.relu        [1] int8 -> int8
//   add            [2] int8 + int8 -> int32 (residual; promoted
//                  accumulator)
//   nn.avg_pool2d / nn.max_pool2d / nn.global_avg_pool2d
//                  [1] integer -> same dtype; float32 is InvalidArgument
//   nn.softmax     [1] int8 -> int8 (CPU-only epilogue)
//   matmul         [2] [..., M, K] x [N, K] (transpose_b=1) or [K, N]
//                  -> int32 for int8 x int8/ternary
//   transpose      [1] permutes dims by `axes`
//   nn.layernorm   [1] int8 -> int8 over the last axis
//   nn.gelu        [1] int8 -> int8
//   reshape        [1] `new_shape`, one -1 dim may be inferred
//   nn.flatten     [1] [N, ...] -> [N, rest]
//   nn.pad         [1] explicit zero padding (TFLite imports carry these;
//                  the AbsorbPadding pass folds them into conv attrs)
//
// Each op's inference function maps input types + attrs to the output
// type; graph construction runs inference eagerly so malformed graphs fail
// at the point of the mistake. The table is constant, so lookups need no
// lock from concurrent graph builders.
//
// Graph::TryAddOp looks the name up once and stores the row's OpId on the
// node; consumers compare ids (Node::Is). nn::EvalOp and hw::CpuOpCycles
// switch on the id with no `default`, so a new op without a case there
// fails the build (-Werror=switch). Node::op keeps the name for the text
// and HAB formats and for dumps.
#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>

#include "ir/attrs.hpp"
#include "support/status.hpp"
#include "tensor/dtype.hpp"
#include "tensor/shape.hpp"

namespace htvm {

struct TensorType {
  Shape shape;
  DType dtype = DType::kInt8;

  bool operator==(const TensorType& o) const {
    return shape == o.shape && dtype == o.dtype;
  }
  std::string ToString() const;
};

// One id per row of the op table, in table order.
enum class OpId : u8 {
  kConv2d, kDense, kBiasAdd, kRightShift, kClip, kCast, kRelu, kAdd,
  kAvgPool2d, kMaxPool2d, kGlobalAvgPool2d, kSoftmax, kMatmul, kTranspose,
  kLayerNorm, kGelu, kReshape, kFlatten, kPad,
};
inline constexpr int kNumOps = static_cast<int>(OpId::kPad) + 1;

struct OpDef {
  OpId id;
  std::string_view name;
  int arity;  // number of inputs: 1 or 2
  Result<TensorType> (*infer)(std::span<const TensorType> inputs,
                              const AttrMap& attrs);
};

// The table entry for `name`, or nullptr for a name outside the vocabulary.
const OpDef* FindOp(std::string_view name);
// The table name of `id` ("nn.conv2d" for OpId::kConv2d).
std::string_view OpName(OpId id);

// Shape arithmetic shared by inference, the DORY layer analyzer and the
// accelerator cost models: output spatial size of a conv/pool window.
//   out = (in + pad_begin + pad_end - kernel) / stride + 1
// and 0 when the window is larger than the padded input (truncating the
// negative quotient toward zero would give one window reading past it).
i64 ConvOutDim(i64 in, i64 kernel, i64 pad_begin, i64 pad_end, i64 stride);

// The [top, left, bottom, right] form of a conv/pool `padding` attribute
// given as [p], [py, px] or [pt, pl, pb, pr]; an empty list is no padding.
// Every reader of `padding` (type inference, the nn kernels, the DORY layer
// specs, the C emitter, AbsorbPadding, nn.pad) goes through this one rule.
// An entry < 0 or > INT32_MAX, or any other length, is InvalidArgument.
Result<std::array<i64, 4>> NormalizePadding(std::span<const i64> padding,
                                            const char* op);

// NormalizePadding of a node's "padding" attribute (absent: no padding).
inline Result<std::array<i64, 4>> NormalizePadding(const AttrMap& attrs,
                                                   const char* op) {
  return NormalizePadding(attrs.GetIntVec("padding", {}), op);
}

}  // namespace htvm
