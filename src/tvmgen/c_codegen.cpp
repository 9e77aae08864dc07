#include "tvmgen/c_codegen.hpp"

#include <cstdint>
#include <map>

#include "dory/layer_spec.hpp"
#include "nn/kernels.hpp"
#include "support/string_utils.hpp"

namespace htvm::tvmgen {
namespace {

// The single op of a one-op body, or nullptr for fused chains.
const Node* LoneOp(const Graph& body) {
  const Node* found = nullptr;
  for (const Node& n : body.nodes()) {
    if (n.kind != NodeKind::kOp) continue;
    if (found != nullptr) return nullptr;
    found = &n;
  }
  return found;
}

// Per-channel shift table (empty string when the layer is uniform).
std::string ShiftTable(const dory::AccelLayerSpec& s,
                       const std::string& fn) {
  if (!s.requant.per_channel()) return "";
  std::string out = StrFormat("  static const int32_t %s_sh[%zu] = {",
                              fn.c_str(), s.requant.channel_shifts.size());
  for (size_t i = 0; i < s.requant.channel_shifts.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(s.requant.channel_shifts[i]);
  }
  out += "};\n";
  return out;
}

std::string ShiftExpr(const dory::AccelLayerSpec& s, const std::string& fn,
                      const char* channel_var) {
  return s.requant.per_channel() ? fn + "_sh[" + channel_var + "]"
                                 : std::string("SHIFT");
}

std::string EmitConvChain(const dory::AccelLayerSpec& s,
                          const std::string& fn, const std::string& wsym,
                          const std::string& bsym) {
  const bool dw = s.kind == dory::LayerKind::kDwConv2d;
  const i64 groups = dw ? s.c : 1;
  std::string c;
  c += StrFormat("// %s: fused %s + requant on the RISC-V core\n", fn.c_str(),
                 dw ? "depthwise conv2d" : "conv2d");
  c += StrFormat("void %s(const int8_t* in, int8_t* out) {\n", fn.c_str());
  c += StrFormat(
      "  enum { C = %lld, K = %lld, IY = %lld, IX = %lld, OY = %lld, OX = "
      "%lld,\n",
      (long long)s.c, (long long)s.k, (long long)s.iy, (long long)s.ix,
      (long long)s.oy, (long long)s.ox);
  c += StrFormat(
      "         KH = %lld, KW = %lld, SY = %lld, SX = %lld, PT = %lld, PL = "
      "%lld,\n",
      (long long)s.kh, (long long)s.kw, (long long)s.sy, (long long)s.sx,
      (long long)s.pad_t, (long long)s.pad_l);
  c += StrFormat("         G = %lld, SHIFT = %lld, RELU = %d };\n",
                 (long long)groups, (long long)s.requant.shift,
                 s.requant.relu ? 1 : 0);
  c += ShiftTable(s, fn);
  c += "  for (int k = 0; k < K; ++k) {\n";
  c += "    const int g = k / (K / G);\n";
  c += "    for (int oy = 0; oy < OY; ++oy) {\n";
  c += "      for (int ox = 0; ox < OX; ++ox) {\n";
  c += StrFormat("        uint32_t acc = (uint32_t)%s[k];\n", bsym.c_str());
  c += "        for (int ci = 0; ci < C / G; ++ci) {\n";
  c += "          const int ic = g * (C / G) + ci;\n";
  c += "          for (int fy = 0; fy < KH; ++fy) {\n";
  c += "            const int iy = oy * SY + fy - PT;\n";
  c += "            if (iy < 0 || iy >= IY) continue;\n";
  c += "            for (int fx = 0; fx < KW; ++fx) {\n";
  c += "              const int ix = ox * SX + fx - PL;\n";
  c += "              if (ix < 0 || ix >= IX) continue;\n";
  c += "              acc += (uint32_t)((int32_t)in[((size_t)ic * IY + iy) "
       "* IX + ix] *\n";
  c += StrFormat(
      "                     %s[(((size_t)k * (C / G) + ci) * KH + fy) * KW + "
      "fx]);\n",
      wsym.c_str());
  c += "            }\n          }\n        }\n";
  c += StrFormat(
      "        out[((size_t)k * OY + oy) * OX + ox] = "
      "htvm_requant((int32_t)acc, %s, RELU);\n",
      ShiftExpr(s, fn, "k").c_str());
  c += "      }\n    }\n  }\n}\n";
  return c;
}

std::string EmitDenseChain(const dory::AccelLayerSpec& s,
                           const std::string& fn, const std::string& wsym,
                           const std::string& bsym) {
  std::string c;
  c += StrFormat("// %s: fused dense + requant on the RISC-V core\n",
                 fn.c_str());
  c += StrFormat("void %s(const int8_t* in, int8_t* out) {\n", fn.c_str());
  c += StrFormat("  enum { I = %lld, O = %lld, SHIFT = %lld, RELU = %d };\n",
                 (long long)s.c, (long long)s.k, (long long)s.requant.shift,
                 s.requant.relu ? 1 : 0);
  c += ShiftTable(s, fn);
  c += "  for (int k = 0; k < O; ++k) {\n";
  c += StrFormat("    uint32_t acc = (uint32_t)%s[k];\n", bsym.c_str());
  c += "    for (int i = 0; i < I; ++i) {\n";
  c += StrFormat(
      "      acc += (uint32_t)((int32_t)in[i] * %s[(size_t)k * I + i]);\n",
      wsym.c_str());
  c += "    }\n";
  c += StrFormat("    out[k] = htvm_requant((int32_t)acc, %s, RELU);\n",
                 ShiftExpr(s, fn, "k").c_str());
  c += "  }\n}\n";
  return c;
}

std::string EmitMatmulChain(const dory::AccelLayerSpec& s,
                            const std::string& fn, const std::string& wsym,
                            const std::string& bsym) {
  std::string c;
  c += StrFormat("// %s: fused matmul + requant on the RISC-V core\n",
                 fn.c_str());
  c += StrFormat("void %s(const int8_t* in, int8_t* out) {\n", fn.c_str());
  c += StrFormat("  enum { M = %lld, I = %lld, O = %lld, SHIFT = %lld, RELU "
                 "= %d };\n",
                 (long long)s.oy, (long long)s.c, (long long)s.k,
                 (long long)s.requant.shift, s.requant.relu ? 1 : 0);
  c += ShiftTable(s, fn);
  c += "  for (int m = 0; m < M; ++m) {\n";
  c += "    for (int k = 0; k < O; ++k) {\n";
  c += StrFormat("      uint32_t acc = (uint32_t)%s[k];\n", bsym.c_str());
  c += "      for (int i = 0; i < I; ++i) {\n";
  c += StrFormat(
      "        acc += (uint32_t)((int32_t)in[(size_t)m * I + i] * "
      "%s[(size_t)k * I + i]);\n",
      wsym.c_str());
  c += "      }\n";
  c += StrFormat("      out[(size_t)m * O + k] = htvm_requant((int32_t)acc, "
                 "%s, RELU);\n",
                 ShiftExpr(s, fn, "k").c_str());
  c += "    }\n  }\n}\n";
  return c;
}

std::string EmitAddChain(const dory::AccelLayerSpec& s,
                         const std::string& fn) {
  std::string c;
  c += StrFormat("// %s: fused residual add + requant on the RISC-V core\n",
                 fn.c_str());
  c += StrFormat(
      "void %s(const int8_t* a, const int8_t* b, int8_t* out) {\n",
      fn.c_str());
  c += StrFormat("  enum { N = %lld, SHIFT = %lld, RELU = %d };\n",
                 (long long)(s.c * s.oy * s.ox), (long long)s.requant.shift,
                 s.requant.relu ? 1 : 0);
  c += "  for (int i = 0; i < N; ++i) {\n";
  c += "    out[i] = htvm_requant((int32_t)a[i] + (int32_t)b[i], SHIFT, "
       "RELU);\n";
  c += "  }\n}\n";
  return c;
}

const char* CTypeName(DType t) {
  switch (t) {
    case DType::kInt8: return "int8_t";
    case DType::kInt32: return "int32_t";
    default: return nullptr;
  }
}

// 256-entry int8 GELU lookup table, embedded verbatim from the reference
// kernel so the deployed gelu is bit-identical by construction.
std::string EmitGeluTable(const std::string& name) {
  const auto& table = nn::GeluTable();
  std::string c =
      StrFormat("  static const int8_t %s[256] = {\n    ", name.c_str());
  for (int i = 0; i < 256; ++i) {
    c += std::to_string(static_cast<int>(table[static_cast<size_t>(i)]));
    if (i + 1 < 256) c += (i % 20 == 19) ? ",\n    " : ", ";
  }
  c += "};\n";
  return c;
}

// Odometer-style permutation copy; works for any element type since it
// only indexes.
std::string EmitTransposeLoop(const Shape& in_shape,
                              const std::vector<i64>& axes,
                              const std::string& src, const std::string& dst) {
  const i64 rank = in_shape.rank();
  std::vector<i64> in_strides(static_cast<size_t>(rank), 1);
  for (i64 i = rank - 2; i >= 0; --i) {
    in_strides[static_cast<size_t>(i)] =
        in_strides[static_cast<size_t>(i + 1)] * in_shape[i + 1];
  }
  std::string od = "{", st = "{";
  for (i64 i = 0; i < rank; ++i) {
    if (i) {
      od += ", ";
      st += ", ";
    }
    od += std::to_string(in_shape[axes[static_cast<size_t>(i)]]);
    st += std::to_string(in_strides[static_cast<size_t>(axes[static_cast<size_t>(i)])]);
  }
  od += "}";
  st += "}";
  std::string c;
  c += "  {  // transpose\n";
  c += StrFormat("    static const int od[%lld] = %s;\n", (long long)rank,
                 od.c_str());
  c += StrFormat("    static const size_t st[%lld] = %s;\n", (long long)rank,
                 st.c_str());
  c += StrFormat("    int idx[%lld] = {0};\n", (long long)rank);
  c += StrFormat("    for (long f = 0; f < %lld; ++f) {\n",
                 (long long)in_shape.NumElements());
  c += "      size_t s = 0;\n";
  c += StrFormat("      for (int d = 0; d < %lld; ++d) s += (size_t)idx[d] * "
                 "st[d];\n",
                 (long long)rank);
  c += StrFormat("      %s[f] = %s[s];\n", dst.c_str(), src.c_str());
  c += StrFormat("      for (int d = %lld; d >= 0; --d) { if (++idx[d] < "
                 "od[d]) break; idx[d] = 0; }\n",
                 (long long)(rank - 1));
  c += "    }\n  }\n";
  return c;
}

Result<std::string> EmitLoneOp(const Graph& body, const Node& op,
                               const std::string& fn) {
  const TensorType& in = body.node(op.inputs[0]).type;
  const TensorType& out_t = op.type;
  if (in.dtype != DType::kInt8 || out_t.dtype != DType::kInt8) {
    return Status::Unsupported("lone op with non-int8 I/O: " + op.op);
  }
  std::string c;
  c += StrFormat("// %s: %s on the RISC-V core\n", fn.c_str(), op.op.c_str());
  c += StrFormat("void %s(const int8_t* in, int8_t* out) {\n", fn.c_str());

  if (op.Is(OpId::kAvgPool2d) || op.Is(OpId::kMaxPool2d)) {
    const auto pool = op.attrs.GetIntVec("pool_size", {2, 2});
    const auto strides = op.attrs.GetIntVec("strides", pool);
    HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(op.attrs, "pool2d"));
    c += StrFormat(
        "  htvm_%s_pool2d(in, out, %lld, %lld, %lld, %lld, %lld, %lld, "
        "%lld, %lld, %lld, %lld, %lld);\n",
        op.Is(OpId::kAvgPool2d) ? "avg" : "max", (long long)in.shape[1],
        (long long)in.shape[2], (long long)in.shape[3], (long long)pool[0],
        (long long)pool[1], (long long)strides[0], (long long)strides[1],
        (long long)pad[0], (long long)pad[1], (long long)out_t.shape[2],
        (long long)out_t.shape[3]);
  } else if (op.Is(OpId::kGlobalAvgPool2d)) {
    c += StrFormat("  htvm_global_avg_pool2d(in, out, %lld, %lld);\n",
                   (long long)in.shape[1],
                   (long long)(in.shape[2] * in.shape[3]));
  } else if (op.Is(OpId::kSoftmax)) {
    const i64 cols = in.shape[in.shape.rank() - 1];
    c += StrFormat("  htvm_softmax_int8(in, out, %lld, %lld);\n",
                   (long long)(in.shape.NumElements() / cols),
                   (long long)cols);
  } else if (op.Is(OpId::kReshape) || op.Is(OpId::kFlatten)) {
    c += StrFormat("  memcpy(out, in, %lld);\n",
                   (long long)in.shape.NumElements());
  } else if (op.Is(OpId::kRelu)) {
    c += StrFormat("  for (int i = 0; i < %lld; ++i) ",
                   (long long)in.shape.NumElements());
    c += "out[i] = in[i] < 0 ? 0 : in[i];\n";
  } else if (op.Is(OpId::kClip)) {
    c += StrFormat(
        "  for (int i = 0; i < %lld; ++i) {\n    int v = in[i];\n"
        "    if (v < %lld) v = %lld;\n    if (v > %lld) v = %lld;\n"
        "    out[i] = (int8_t)v;\n  }\n",
        (long long)in.shape.NumElements(),
        (long long)op.attrs.GetInt("a_min", -128),
        (long long)op.attrs.GetInt("a_min", -128),
        (long long)op.attrs.GetInt("a_max", 127),
        (long long)op.attrs.GetInt("a_max", 127));
  } else if (op.Is(OpId::kCast)) {
    c += StrFormat("  memcpy(out, in, %lld);  // int8 -> int8 cast\n",
                   (long long)in.shape.NumElements());
  } else if (op.Is(OpId::kLayerNorm)) {
    const i64 cols = in.shape[in.shape.rank() - 1];
    c += StrFormat("  htvm_layernorm_int8(in, out, %lld, %lld);\n",
                   (long long)(in.shape.NumElements() / cols),
                   (long long)cols);
  } else if (op.Is(OpId::kGelu)) {
    c += EmitGeluTable(fn + "_lut");
    c += StrFormat("  for (int i = 0; i < %lld; ++i) ",
                   (long long)in.shape.NumElements());
    c += StrFormat("out[i] = %s_lut[in[i] + 128];\n", fn.c_str());
  } else if (op.Is(OpId::kTranspose)) {
    c += EmitTransposeLoop(in.shape, op.attrs.GetIntVec("axes"), "in", "out");
  } else {
    return Status::Unsupported("no CPU C emitter for op " + op.op);
  }
  c += "}\n";
  return c;
}

// Fallback emitter for composite bodies that are not one of the single-
// anchor chains: the body is lowered to straight-line C, one block per op,
// with static intermediate buffers. This is what makes whole-block kernels
// — the diana.mhsa attention body, diana.fused2 depth-first conv pairs,
// activation x activation matmul chains — deployable as real, bit-exact C.
Result<std::string> EmitGenericBody(const Graph& body, const std::string& fn) {
  std::map<NodeId, std::string> sym;  // node id -> C expression
  std::string decls, code;
  int next_const = 0;

  const auto ensure_const = [&](const Node& n) -> Result<std::string> {
    auto it = sym.find(n.id);
    if (it != sym.end()) return it->second;
    const char* ct = CTypeName(n.value.dtype());
    if (ct == nullptr) {
      return Status::Unsupported("generic CPU body: constant dtype");
    }
    const std::string name = StrFormat("%s_k%d", fn.c_str(), next_const++);
    const i64 count = n.value.NumElements();
    std::string d = StrFormat("  static const %s %s[%lld] = {\n    ", ct,
                              name.c_str(), (long long)count);
    for (i64 i = 0; i < count; ++i) {
      d += std::to_string((long long)n.value.GetFlat(i));
      if (i + 1 < count) d += (i % 20 == 19) ? ",\n    " : ", ";
    }
    d += "};\n";
    decls += d;
    sym[n.id] = name;
    return name;
  };
  const auto operand = [&](NodeId id) -> Result<std::string> {
    const Node& src = body.node(id);
    if (src.kind == NodeKind::kConstant) return ensure_const(src);
    auto it = sym.find(id);
    if (it == sym.end()) {
      return Status::Internal("generic CPU body: operand not materialized");
    }
    return it->second;
  };

  for (size_t i = 0; i < body.inputs().size(); ++i) {
    const Node& in = body.node(body.inputs()[i]);
    if (in.type.dtype != DType::kInt8) {
      return Status::Unsupported("generic CPU body: non-int8 input");
    }
    sym[in.id] = StrFormat("in%zu", i);
  }

  for (const Node& n : body.nodes()) {
    if (n.kind != NodeKind::kOp) continue;
    const i64 count = n.type.shape.NumElements();
    if (n.Is(OpId::kReshape) || n.Is(OpId::kFlatten)) {
      HTVM_ASSIGN_OR_RETURN(a, operand(n.inputs[0]));
      sym[n.id] = a;  // layout-free: alias the producer's buffer
      continue;
    }
    const char* ct = CTypeName(n.type.dtype);
    if (ct == nullptr) {
      return Status::Unsupported("generic CPU body: dtype of op " + n.op);
    }
    const std::string t = "t" + std::to_string(n.id);
    decls += StrFormat("  static %s %s[%lld];\n", ct, t.c_str(),
                       (long long)count);
    sym[n.id] = t;
    HTVM_ASSIGN_OR_RETURN(a, operand(n.inputs[0]));
    const TensorType& at = body.node(n.inputs[0]).type;

    if (n.Is(OpId::kConv2d)) {
      HTVM_ASSIGN_OR_RETURN(w, operand(n.inputs[1]));
      const TensorType& wt = body.node(n.inputs[1]).type;
      const auto strides = n.attrs.GetIntVec("strides", {1, 1});
      HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(n.attrs, "conv2d"));
      const i64 groups = n.attrs.GetInt("groups", 1);
      const i64 batch = at.shape[0];
      code += StrFormat("  {  // %s = conv2d(%s, %s)\n", t.c_str(), a.c_str(),
                        w.c_str());
      code += StrFormat(
          "    enum { CC = %lld, KK = %lld, IY = %lld, IX = %lld, OY = %lld, "
          "OX = %lld,\n           FH = %lld, FW = %lld, SY = %lld, SX = %lld, "
          "PT = %lld, PL = %lld, GG = %lld };\n",
          (long long)at.shape[1], (long long)wt.shape[0],
          (long long)at.shape[2], (long long)at.shape[3],
          (long long)n.type.shape[2], (long long)n.type.shape[3],
          (long long)wt.shape[2], (long long)wt.shape[3], (long long)strides[0],
          (long long)strides[1], (long long)pad[0], (long long)pad[1],
          (long long)groups);
      code += StrFormat("    for (int bi = 0; bi < %lld; ++bi)\n",
                        (long long)batch);
      code += "    for (int k = 0; k < KK; ++k) {\n";
      code += "      const int g = k / (KK / GG);\n";
      code += "      for (int oy = 0; oy < OY; ++oy)\n";
      code += "      for (int ox = 0; ox < OX; ++ox) {\n";
      code += "        uint32_t acc = 0;\n";
      code += "        for (int ci = 0; ci < CC / GG; ++ci) {\n";
      code += "          const int ic = g * (CC / GG) + ci;\n";
      code += "          for (int fy = 0; fy < FH; ++fy) {\n";
      code += "            const int iy = oy * SY + fy - PT;\n";
      code += "            if (iy < 0 || iy >= IY) continue;\n";
      code += "            for (int fx = 0; fx < FW; ++fx) {\n";
      code += "              const int ix = ox * SX + fx - PL;\n";
      code += "              if (ix < 0 || ix >= IX) continue;\n";
      code += StrFormat(
          "              acc += (uint32_t)((int32_t)%s[(((size_t)bi * CC + "
          "ic) * IY + iy) * IX + ix] *\n                     %s[(((size_t)k * "
          "(CC / GG) + ci) * FH + fy) * FW + fx]);\n",
          a.c_str(), w.c_str());
      code += "            }\n          }\n        }\n";
      code += StrFormat(
          "        %s[(((size_t)bi * KK + k) * OY + oy) * OX + ox] = "
          "(int32_t)acc;\n",
          t.c_str());
      code += "      }\n    }\n  }\n";
    } else if (n.Is(OpId::kMatmul)) {
      HTVM_ASSIGN_OR_RETURN(b, operand(n.inputs[1]));
      const TensorType& bt = body.node(n.inputs[1]).type;
      const bool tb = n.attrs.GetInt("transpose_b", 1) != 0;
      const i64 m = at.shape[at.shape.rank() - 2];
      const i64 kk = at.shape[at.shape.rank() - 1];
      const i64 nn = tb ? bt.shape[bt.shape.rank() - 2]
                        : bt.shape[bt.shape.rank() - 1];
      const i64 batch = at.shape.NumElements() / (m * kk);
      const i64 bb = bt.shape.NumElements() / (nn * kk);
      const std::string bidx =
          tb ? StrFormat("((size_t)(bi %% %lld) * %lld + c) * %lld + x",
                         (long long)bb, (long long)nn, (long long)kk)
             : StrFormat("((size_t)(bi %% %lld) * %lld + x) * %lld + c",
                         (long long)bb, (long long)kk, (long long)nn);
      code += StrFormat("  {  // %s = matmul(%s, %s)\n", t.c_str(), a.c_str(),
                        b.c_str());
      code += StrFormat("    for (int bi = 0; bi < %lld; ++bi)\n",
                        (long long)batch);
      code += StrFormat("    for (int r = 0; r < %lld; ++r)\n", (long long)m);
      code += StrFormat("    for (int c = 0; c < %lld; ++c) {\n",
                        (long long)nn);
      code += "      uint32_t acc = 0;\n";
      code += StrFormat("      for (int x = 0; x < %lld; ++x)\n",
                        (long long)kk);
      code += StrFormat(
          "        acc += (uint32_t)((int32_t)%s[((size_t)bi * %lld + r) * "
          "%lld + x] * %s[%s]);\n",
          a.c_str(), (long long)m, (long long)kk, b.c_str(), bidx.c_str());
      code += StrFormat("      %s[((size_t)bi * %lld + r) * %lld + c] = "
                        "(int32_t)acc;\n",
                        t.c_str(), (long long)m, (long long)nn);
      code += "    }\n  }\n";
    } else if (n.Is(OpId::kBiasAdd)) {
      HTVM_ASSIGN_OR_RETURN(b, operand(n.inputs[1]));
      const i64 axis = n.attrs.GetInt("axis", 1);
      i64 inner = 1;
      for (i64 d = axis + 1; d < n.type.shape.rank(); ++d) {
        inner *= n.type.shape[d];
      }
      code += StrFormat(
          "  for (long i = 0; i < %lld; ++i) %s[i] = (int32_t)((uint32_t)%s[i] "
          "+ (uint32_t)%s[(i / %lld) %% %lld]);\n",
          (long long)count, t.c_str(), a.c_str(), b.c_str(), (long long)inner,
          (long long)n.type.shape[axis]);
    } else if (n.Is(OpId::kRightShift)) {
      const Node& sh = body.node(n.inputs[1]);
      if (sh.kind != NodeKind::kConstant || sh.value.NumElements() != 1) {
        return Status::Unsupported("generic CPU body: non-scalar shift");
      }
      const i64 s = sh.value.GetFlat(0);
      if (s > 0) {
        code += StrFormat(
            "  for (long i = 0; i < %lld; ++i) %s[i] = (%s[i] >> %lld) + "
            "((%s[i] >> %lld) & 1);\n",
            (long long)count, t.c_str(), a.c_str(), (long long)s, a.c_str(),
            (long long)(s - 1));
      } else {
        code += StrFormat("  for (long i = 0; i < %lld; ++i) %s[i] = %s[i];\n",
                          (long long)count, t.c_str(), a.c_str());
      }
    } else if (n.Is(OpId::kClip)) {
      code += StrFormat(
          "  for (long i = 0; i < %lld; ++i) {\n    int32_t v = %s[i];\n"
          "    if (v < %lld) v = %lld;\n    if (v > %lld) v = %lld;\n"
          "    %s[i] = v;\n  }\n",
          (long long)count, a.c_str(), (long long)n.attrs.GetInt("a_min", -128),
          (long long)n.attrs.GetInt("a_min", -128),
          (long long)n.attrs.GetInt("a_max", 127),
          (long long)n.attrs.GetInt("a_max", 127), t.c_str());
    } else if (n.Is(OpId::kCast)) {
      const i64 lo = n.type.dtype == DType::kInt8 ? -128 : INT32_MIN;
      const i64 hi = n.type.dtype == DType::kInt8 ? 127 : INT32_MAX;
      code += StrFormat(
          "  for (long i = 0; i < %lld; ++i) {\n    int32_t v = %s[i];\n"
          "    if (v < %lld) v = %lld;\n    if (v > %lld) v = %lld;\n"
          "    %s[i] = (%s)v;\n  }\n",
          (long long)count, a.c_str(), (long long)lo, (long long)lo,
          (long long)hi, (long long)hi, t.c_str(), ct);
    } else if (n.Is(OpId::kRelu)) {
      code += StrFormat(
          "  for (long i = 0; i < %lld; ++i) %s[i] = %s[i] < 0 ? 0 : "
          "%s[i];\n",
          (long long)count, t.c_str(), a.c_str(), a.c_str());
    } else if (n.Is(OpId::kAdd)) {
      HTVM_ASSIGN_OR_RETURN(b, operand(n.inputs[1]));
      code += StrFormat(
          "  for (long i = 0; i < %lld; ++i) %s[i] = (int32_t)%s[i] + "
          "(int32_t)%s[i];\n",
          (long long)count, t.c_str(), a.c_str(), b.c_str());
    } else if (n.Is(OpId::kTranspose)) {
      code += EmitTransposeLoop(at.shape, n.attrs.GetIntVec("axes"), a, t);
    } else if (n.Is(OpId::kSoftmax)) {
      const i64 cols = at.shape[at.shape.rank() - 1];
      code += StrFormat("  htvm_softmax_int8(%s, %s, %lld, %lld);\n",
                        a.c_str(), t.c_str(),
                        (long long)(at.shape.NumElements() / cols),
                        (long long)cols);
    } else if (n.Is(OpId::kLayerNorm)) {
      const i64 cols = at.shape[at.shape.rank() - 1];
      code += StrFormat("  htvm_layernorm_int8(%s, %s, %lld, %lld);\n",
                        a.c_str(), t.c_str(),
                        (long long)(at.shape.NumElements() / cols),
                        (long long)cols);
    } else if (n.Is(OpId::kGelu)) {
      decls += EmitGeluTable(t + "_lut");
      code += StrFormat(
          "  for (long i = 0; i < %lld; ++i) %s[i] = %s_lut[%s[i] + 128];\n",
          (long long)count, t.c_str(), t.c_str(), a.c_str());
    } else {
      return Status::Unsupported("generic CPU body: op " + n.op);
    }
  }

  const Node& out_node = body.node(body.outputs()[0]);
  if (out_node.type.dtype != DType::kInt8) {
    return Status::Unsupported("generic CPU body: non-int8 output");
  }
  HTVM_ASSIGN_OR_RETURN(out_sym, operand(out_node.id));

  std::string c;
  c += StrFormat("// %s: composite body lowered to straight-line C\n",
                 fn.c_str());
  c += StrFormat("void %s(", fn.c_str());
  for (size_t i = 0; i < body.inputs().size(); ++i) {
    c += StrFormat("const int8_t* in%zu, ", i);
  }
  c += "int8_t* out) {\n";
  c += decls;
  c += code;
  c += StrFormat("  memcpy(out, %s, %lld);\n", out_sym.c_str(),
                 (long long)out_node.type.shape.NumElements());
  c += "}\n";
  return c;
}

}  // namespace

Result<std::string> EmitCpuKernelC(const Node& composite,
                                   const std::string& fn_name,
                                   const std::string& weights_sym,
                                   const std::string& bias_sym) {
  HTVM_CHECK(composite.kind == NodeKind::kComposite);
  const Graph& body = *composite.body;

  // Fused chains contain >= 2 ops; a single-op body is a wrapped leftover
  // (pool / softmax / layout / elementwise) emitted against the runtime
  // helpers instead.
  if (const Node* lone = LoneOp(body)) {
    return EmitLoneOp(body, *lone, fn_name);
  }

  auto spec = dory::AnalyzeCompositeBody(body);
  if (spec.ok()) {
    switch (spec->kind) {
      case dory::LayerKind::kConv2d:
      case dory::LayerKind::kDwConv2d:
        return EmitConvChain(*spec, fn_name, weights_sym, bias_sym);
      case dory::LayerKind::kDense:
        return EmitDenseChain(*spec, fn_name, weights_sym, bias_sym);
      case dory::LayerKind::kMatmul:
        // Constant-weight chains use the hoisted weight/bias symbols; an
        // activation x activation chain falls through to the generic path.
        if (!weights_sym.empty() && !bias_sym.empty()) {
          return EmitMatmulChain(*spec, fn_name, weights_sym, bias_sym);
        }
        break;
      case dory::LayerKind::kAdd:
        return EmitAddChain(*spec, fn_name);
    }
  }
  // Anything that is not a single-anchor chain (whole attention blocks,
  // unusual fusions) still deploys: emit the body as straight-line C.
  return EmitGenericBody(body, fn_name);
}

}  // namespace htvm::tvmgen
