// Operator registry with shape/type inference — the IR's op vocabulary.
//
// The vocabulary mirrors the Relay ops that appear in quantized MLPerf Tiny
// graphs and in the paper's Listing 1 pattern:
//
//   nn.conv2d      int8 x int8/ternary -> int32, attrs strides/padding/groups
//   nn.dense       int8 x int8/ternary -> int32 (FC)
//   nn.bias_add    int32 + int32 bias (per output channel) -> int32
//   right_shift    int32 x scalar const -> int32 (requant shift, rounding)
//   clip           saturation bounds (a_min, a_max)
//   cast           dtype change (requant narrows to int8)
//   nn.relu        int8 -> int8
//   add            int8+int8 -> int32 (residual; promoted accumulator)
//   nn.avg_pool2d / nn.max_pool2d / nn.global_avg_pool2d  int8 -> int8
//   nn.softmax     int8 -> int8 (CPU-only epilogue)
//   reshape / flatten
//   nn.pad         explicit zero padding (TFLite imports carry these;
//                  the AbsorbPadding pass folds them into conv attrs)
//
// Each op registers an inference function mapping input types + attrs to the
// output type; graph construction runs inference eagerly so malformed graphs
// fail at the point of the mistake.
#pragma once

#include <array>
#include <functional>
#include <mutex>
#include <span>
#include <string>

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

using InferFn = std::function<Result<TensorType>(
    std::span<const TensorType> inputs, const AttrMap& attrs)>;

struct OpDef {
  std::string name;
  int arity = 1;  // -1 = variadic
  InferFn infer;
};

// Global registry. Ops are registered once at startup (RegisterCoreOps) and
// looked up by name during graph construction and pattern matching. Both
// operations are mutex-guarded so graphs can be built from concurrent
// serving threads; returned OpDef pointers stay valid (std::map nodes are
// stable under later insertions).
class OpRegistry {
 public:
  static OpRegistry& Global();

  void Register(OpDef def);
  const OpDef* Find(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, OpDef> ops_;
};

// Registers the op vocabulary above. Idempotent.
void RegisterCoreOps();

// Shape arithmetic shared by inference, the DORY layer analyzer and the
// accelerator cost models: output spatial size of a conv/pool window.
//   out = (in + pad_begin + pad_end - kernel) / stride + 1
// and 0 when the window is larger than the padded input (truncating the
// negative quotient toward zero would give one window reading past it).
i64 ConvOutDim(i64 in, i64 kernel, i64 pad_begin, i64 pad_end, i64 stride);

// The [top, left, bottom, right] form of a conv/pool `padding` attribute
// given as [p], [py, px] or [pt, pl, pb, pr]; an empty list is no padding.
// Every reader of `padding` (type inference, the nn kernels, the DORY layer
// specs, the C emitter, AbsorbPadding) goes through this one rule. A
// negative entry or any other length is InvalidArgument naming `op`.
Result<std::array<i64, 4>> NormalizePadding(std::span<const i64> padding,
                                            const char* op);

// NormalizePadding of a node's "padding" attribute (absent: no padding).
inline Result<std::array<i64, 4>> NormalizePadding(const AttrMap& attrs,
                                                   const char* op) {
  return NormalizePadding(attrs.GetIntVec("padding", {}), op);
}

}  // namespace htvm
