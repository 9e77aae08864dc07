// Transformer-workload reference kernels: transpose, layernorm, gelu
// (matmul shares conv2d's and dense's GEMM core in conv.cpp). Like the rest
// of src/nn these are the bit-exact ground truth the compiled paths (CPU
// composites and DORY-tiled accelerator kernels) must reproduce.
// Layernorm and gelu follow the repo's fixed-activation-scale convention
// (int8 value v represents v / kActScale) so the int8 results are
// deterministic across platforms.
#include <array>
#include <cmath>

#include "nn/kernels.hpp"
#include "support/math_utils.hpp"

namespace htvm::nn {
namespace {

// Shared activation scale for the float-path ops: int8 value v models the
// real number v / 16. One fractional grid for layernorm and gelu keeps
// their composition (norm -> matmul -> gelu) on a single quantization.
constexpr double kActScale = 16.0;

i64 QuantizeAct(double real) {
  return Clamp(static_cast<i64>(std::llround(real * kActScale)), -128, 127);
}

// Floor integer sqrt (n >= 0). Kept identical to htvm_isqrt64 in the
// generated C runtime header so layernorm is bit-exact on the deployed path.
i64 ISqrt64(i64 n) {
  i64 x = n, y = (n + 1) / 2;
  if (n < 2) return n;
  while (y < x) {
    x = y;
    y = (x + n / x) / 2;
  }
  return x;
}

}  // namespace

Result<Tensor> Transpose(const Tensor& data, const std::vector<i64>& axes) {
  const Shape& d = data.shape();
  if (static_cast<i64>(axes.size()) != d.rank()) {
    return Status::InvalidArgument("transpose: axes size != rank");
  }
  std::vector<i64> out_dims(axes.size());
  std::vector<bool> seen(axes.size(), false);
  for (size_t i = 0; i < axes.size(); ++i) {
    if (axes[i] < 0 || axes[i] >= d.rank() || seen[static_cast<size_t>(axes[i])]) {
      return Status::InvalidArgument("transpose: bad axes permutation");
    }
    seen[static_cast<size_t>(axes[i])] = true;
    out_dims[i] = d[axes[i]];
  }
  Tensor out(Shape(out_dims), data.dtype());
  // in_strides permuted into the output's iteration order.
  std::vector<i64> in_strides(static_cast<size_t>(d.rank()), 1);
  for (i64 i = d.rank() - 2; i >= 0; --i) {
    in_strides[static_cast<size_t>(i)] =
        in_strides[static_cast<size_t>(i + 1)] * d[i + 1];
  }
  const i64 n = data.NumElements();
  std::vector<i64> idx(axes.size(), 0);
  for (i64 flat = 0; flat < n; ++flat) {
    i64 src = 0;
    for (size_t i = 0; i < axes.size(); ++i) {
      src += idx[i] * in_strides[static_cast<size_t>(axes[i])];
    }
    out.SetFlat(flat, data.GetFlat(src));
    for (i64 i = static_cast<i64>(axes.size()) - 1; i >= 0; --i) {
      if (++idx[static_cast<size_t>(i)] < out_dims[static_cast<size_t>(i)]) {
        break;
      }
      idx[static_cast<size_t>(i)] = 0;
    }
  }
  return out;
}

Result<Tensor> LayerNorm(const Tensor& data) {
  if (data.dtype() != DType::kInt8) {
    return Status::InvalidArgument("layernorm: int8 input required");
  }
  const i64 rank = data.shape().rank();
  if (rank < 1) return Status::InvalidArgument("layernorm: rank 0");
  const i64 cols = data.shape()[rank - 1];
  const i64 rows = data.NumElements() / cols;
  Tensor out(data.shape(), DType::kInt8);
  // Normalize each last-axis row to zero mean / unit variance, integer-only
  // so the result is bit-exact across platforms and against the emitted C
  // (htvm_layernorm_int8). With S = sum(x), Q = sum(x^2):
  //   D*(x - mean)      = D*x - S
  //   D^2 * var         = D*Q - S^2
  //   out = round(16 * (x - mean) / sqrt(var + eps))
  //       = round(16 * (D*x - S) / sqrt(D*Q - S^2 + 1))
  // The +1 stands in for epsilon: a constant row (variance 0) maps to the
  // all-zero row instead of dividing by zero.
  for (i64 r = 0; r < rows; ++r) {
    i64 sum = 0, sumsq = 0;
    for (i64 c = 0; c < cols; ++c) {
      const i64 v = data.GetFlat(r * cols + c);
      sum += v;
      sumsq += v * v;
    }
    const i64 denom = ISqrt64(cols * sumsq - sum * sum + 1);
    for (i64 c = 0; c < cols; ++c) {
      const i64 centered = cols * data.GetFlat(r * cols + c) - sum;
      out.SetFlat(r * cols + c,
                  Clamp(RoundedDiv(16 * centered, denom), -128, 127));
    }
  }
  return out;
}

const std::array<i8, 256>& GeluTable() {
  // Elementwise on the activation grid: 256 possible inputs, so the kernel
  // is an int8 lookup table. The emitted C embeds this exact table, making
  // the deployed gelu bit-identical to the reference by construction.
  static const std::array<i8, 256> table = [] {
    std::array<i8, 256> t{};
    for (i64 v = -128; v <= 127; ++v) {
      const double x = static_cast<double>(v) / kActScale;
      const double g = 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
      t[static_cast<size_t>(v + 128)] = static_cast<i8>(QuantizeAct(g));
    }
    return t;
  }();
  return table;
}

Result<Tensor> Gelu(const Tensor& data) {
  if (data.dtype() != DType::kInt8) {
    return Status::InvalidArgument("gelu: int8 input required");
  }
  const std::array<i8, 256>& table = GeluTable();
  Tensor out(data.shape(), DType::kInt8);
  const i64 n = data.NumElements();
  for (i64 i = 0; i < n; ++i) {
    out.SetFlat(i, table[static_cast<size_t>(data.GetFlat(i) + 128)]);
  }
  return out;
}

}  // namespace htvm::nn
