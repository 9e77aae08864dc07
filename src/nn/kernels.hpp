// Bit-exact reference kernels for the quantized op vocabulary.
//
// These serve three roles:
//   1. functional model of the TVM-generated CPU kernels,
//   2. ground truth that accelerator execution (tiled, on the DIANA
//      simulator) must reproduce exactly,
//   3. evaluator for constant folding.
//
// Each kernel resolves its dtypes and checks its extents once per call,
// then loops over typed pointers (Tensor::data<T>()). Values follow the i64
// semantics of Tensor::GetFlat/SetFlat: integers widen, float truncates
// toward zero, and a store narrows with wrap-around. The integer
// contractions (conv2d, dense, matmul) take int8 operands only and share
// one GEMM core: i16-widened rows, dot products summed in chunks of at most
// 2^16 terms in i32 (|i8 * i8| <= 2^14, so a chunk cannot overflow), and
// chunk sums added in wrapping u32. Each output is exactly the low 32 bits
// of the exact sum, i.e. what narrowing an i64 sum to int32 keeps.
#pragma once

#include <array>

#include "ir/attrs.hpp"
#include "support/status.hpp"
#include "tensor/tensor.hpp"

namespace htvm::nn {

// nn.conv2d: data [N,C,H,W] int8 x weight [K,C/g,kh,kw] int8|ternary ->
// int32 [N,K,oh,ow]. Grouped convolution covers depthwise (g == C).
// `padding` follows NormalizePadding (ir/op.hpp); a bad one is
// InvalidArgument. Which loop runs follows from K / groups:
//   > 1  im2col GEMM: each group's input is copied once into a zero-padded
//        i16 plane, panels of up to 64 output pixels x Cg*kh*kw taps are
//        multiplied against the i16-widened weights, 4 output channels per
//        pass over a panel row;
//   == 1 (depthwise) direct tap loop: each (c, fy, fx) tap accumulates over
//        the whole output plane, since a panel column would be used once.
Result<Tensor> Conv2d(const Tensor& data, const Tensor& weight,
                      const std::vector<i64>& strides,
                      const std::vector<i64>& padding, i64 groups);

// nn.dense: data [N,I] x weight [O,I] -> int32 [N,O], on the same
// 4-channel i16 dot-product core as conv2d's GEMM.
Result<Tensor> Dense(const Tensor& data, const Tensor& weight);

// The requant epilogue of every offloadable layer is bias_add ->
// right_shift -> clip [-128, 127] -> cast int8 [-> clip [0, 127]]
// (Listing 1). Its one definition, and the row kernel every DORY output
// stage uses, is RequantizeRow (tensor/quantize.hpp); these four ops compute
// it element for element. On the chain's dtypes (int32 -> int32,
// int32 -> int8, int8 -> int8) they run in the element type: the bias adds
// in wrapping u32, the rounding shift is (v >> s) + ((v >> (s - 1)) & 1),
// and clamp bounds that fit int32 apply in int32. Any other dtype, or
// bounds outside int32, takes the i64 path; both give the same values.

// nn.bias_add along `axis`; an integer sum wraps like the narrowed i64 sum.
Result<Tensor> BiasAdd(const Tensor& data, const Tensor& bias, i64 axis);

// right_shift with rounding half up. `shift` holds one shift or one per
// dim-1 channel, each in [0, 31].
Result<Tensor> RightShift(const Tensor& data, const Tensor& shift);

// clip to [a_min, a_max], same dtype: v < a_min ? a_min : min(v, a_max).
Result<Tensor> Clip(const Tensor& data, i64 a_min, i64 a_max);

// cast with saturation into the target integer dtype.
Result<Tensor> Cast(const Tensor& data, DType dtype);

Result<Tensor> Relu(const Tensor& data);

// add with int8->int32 promotion (residual accumulator domain).
Result<Tensor> Add(const Tensor& lhs, const Tensor& rhs);

// Pooling: avg, max and global avg share one window walk, which clips each
// window to the input once and reduces its in-bounds elements in i64, so
// float32 data is InvalidArgument. Avg rounds sum / count half away from
// zero (0 for a window wholly in padding); max starts at the element
// type's minimum. Global avg is the H x W window at stride 1.
Result<Tensor> AvgPool2d(const Tensor& data, const std::vector<i64>& pool,
                         const std::vector<i64>& strides,
                         const std::vector<i64>& padding);
Result<Tensor> MaxPool2d(const Tensor& data, const std::vector<i64>& pool,
                         const std::vector<i64>& strides,
                         const std::vector<i64>& padding);
Result<Tensor> GlobalAvgPool2d(const Tensor& data);

// nn.pad: zero padding of the spatial dims, pad_width = [t, l, b, r] (each
// >= 0). Rows are copied byte for byte, any dtype.
Result<Tensor> Pad2d(const Tensor& data, const std::vector<i64>& pad_width);

// matmul: a [..., M, K] x b [N, K] (transpose_b, the dense/weight layout)
// or [K, N]; rank-2 b broadcasts over a's batch dims. a must be int8 and b
// int8 or ternary (otherwise InvalidArgument); it runs on conv2d's and
// dense's GEMM core, with b widened once when every batch shares it. The
// output is int32, like nn.dense.
Result<Tensor> MatMul(const Tensor& a, const Tensor& b, bool transpose_b);

// transpose: permutes dims by `axes`.
Result<Tensor> Transpose(const Tensor& data, const std::vector<i64>& axes);

// nn.layernorm: int8 -> int8, zero-mean/unit-variance over the last axis on
// the shared activation grid (value v models v/16); epsilon-stabilized for
// near-zero variance rows.
Result<Tensor> LayerNorm(const Tensor& data);

// nn.gelu: elementwise int8 GELU on the shared activation grid (LUT-exact).
Result<Tensor> Gelu(const Tensor& data);

// The 256-entry int8 GELU lookup table (index = value + 128). The C
// emitter embeds this table verbatim so deployed gelu is bit-identical.
const std::array<i8, 256>& GeluTable();

// Deterministic int8 softmax: exact max-subtraction + table-free
// fixed-point exponent (matches itself across platforms; the paper's nets
// end in softmax on the CPU).
Result<Tensor> Softmax(const Tensor& data);

}  // namespace htvm::nn
