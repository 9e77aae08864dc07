// Transformer-workload reference kernels: matmul, transpose, layernorm,
// gelu. Like the rest of src/nn these are the bit-exact ground truth the
// compiled paths (CPU composites and DORY-tiled accelerator kernels) must
// reproduce. Integer matmul keeps the low 32 bits of its sum; layernorm/gelu
// follow the repo's fixed-activation-scale convention (int8 value v
// represents v / kActScale) so the int8 results are deterministic across
// platforms.
#include <array>
#include <cmath>
#include <type_traits>

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

// Round-half-away-from-zero division, q > 0.
i64 RoundedDiv(i64 p, i64 q) {
  return p >= 0 ? (p + q / 2) / q : -((-p + q / 2) / q);
}

// o[bi] = a[bi] x b[bi] (or the one shared b), with b [n, kk] when
// transpose_b and [kk, n] otherwise. Elements pass through i64 as in the
// elementwise kernels; an integer output keeps only the low bits of the
// sum, so it accumulates in wrapping u32, a float output in i64.
template <typename A, typename B, typename O>
void MatMulTyped(const A* a, const B* b, O* o, i64 batch, bool shared_b,
                 i64 m, i64 kk, i64 n, bool transpose_b) {
  using Acc = std::conditional_t<std::is_integral_v<O>, u32, i64>;
  // Strides of b's column c and reduction index x.
  const i64 c_stride = transpose_b ? kk : 1;
  const i64 x_stride = transpose_b ? 1 : n;
  for (i64 bi = 0; bi < batch; ++bi) {
    const B* bb = b + (shared_b ? 0 : bi) * n * kk;
    for (i64 r = 0; r < m; ++r) {
      const A* arow = a + (bi * m + r) * kk;
      O* orow = o + (bi * m + r) * n;
      for (i64 c = 0; c < n; ++c) {
        const B* bcol = bb + c * c_stride;
        Acc sum = 0;
        for (i64 x = 0; x < kk; ++x) {
          sum += static_cast<Acc>(static_cast<i64>(arow[x]) *
                                  static_cast<i64>(bcol[x * x_stride]));
        }
        orow[c] = static_cast<O>(sum);
      }
    }
  }
}

}  // namespace

Result<Tensor> MatMul(const Tensor& a, const Tensor& b, bool transpose_b) {
  const Shape& as = a.shape();
  const Shape& bs = b.shape();
  if (as.rank() < 2 || bs.rank() < 2) {
    return Status::InvalidArgument("matmul: rank >= 2 tensors required");
  }
  const i64 m = as[as.rank() - 2];
  const i64 kk = as[as.rank() - 1];
  const i64 n = transpose_b ? bs[bs.rank() - 2] : bs[bs.rank() - 1];
  const i64 k2 = transpose_b ? bs[bs.rank() - 1] : bs[bs.rank() - 2];
  if (kk != k2) {
    return Status::InvalidArgument("matmul: reduction dims differ");
  }
  const i64 batch = a.NumElements() / (m * kk);
  const i64 b_batch = b.NumElements() / (n * kk);
  if (b_batch != 1 && b_batch != batch) {
    return Status::InvalidArgument("matmul: batch dims differ");
  }
  std::vector<i64> out_dims;
  for (i64 i = 0; i < as.rank() - 2; ++i) out_dims.push_back(as[i]);
  out_dims.push_back(m);
  out_dims.push_back(n);
  const DType out_t = (a.dtype() == DType::kInt8 && b.dtype() == DType::kInt8)
                          ? DType::kInt32
                          : a.dtype();
  Tensor out(Shape(out_dims), out_t);
  VisitDType(a.dtype(), [&](auto ae) {
    VisitDType(b.dtype(), [&](auto be) {
      VisitDType(out_t, [&](auto oe) {
        MatMulTyped(a.data<decltype(ae)>().data(),
                    b.data<decltype(be)>().data(),
                    out.data<decltype(oe)>().data(), batch, b_batch == 1, m,
                    kk, n, transpose_b);
      });
    });
  });
  return out;
}

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
