#include "tvmgen/c_codegen.hpp"

#include <cstdint>
#include <map>

#include "nn/kernels.hpp"
#include "support/string_utils.hpp"

namespace htvm::tvmgen {
namespace {

// The elementwise ops that fold into the loop of the op producing them.
bool IsEpilogue(const Node& n) {
  return n.Is(OpId::kBiasAdd) || n.Is(OpId::kRightShift) ||
         n.Is(OpId::kClip) || n.Is(OpId::kCast) || n.Is(OpId::kRelu);
}

// The ops lowered to a loop over their output elements.
bool OpensLoop(const Node& n) {
  return IsEpilogue(n) || n.Is(OpId::kConv2d) || n.Is(OpId::kDense) ||
         n.Is(OpId::kMatmul) || n.Is(OpId::kAdd);
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
  c += StrFormat("  {  // %s = transpose(%s)\n", dst.c_str(), src.c_str());
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

// A C integer literal for v (an int32 one when it fits).
std::string Literal(i64 v) {
  if (v >= INT32_MIN && v <= INT32_MAX) return std::to_string(v);
  if (v == INT64_MIN) return "(-9223372036854775807LL - 1)";
  return std::to_string(v) + "LL";
}

bool FitsDType(i64 v, DType t) {
  return t == DType::kInt32 ? (v >= INT32_MIN && v <= INT32_MAX)
                            : (v >= -128 && v <= 127);
}

// Index of `axis` of an element at flat index `o` in shape `s`: the nest's
// loop variable for that axis when it has one.
std::string AxisIndex(const Shape& s, i64 axis,
                      const std::vector<std::string>& axis_vars) {
  if (axis < static_cast<i64>(axis_vars.size()) &&
      !axis_vars[static_cast<size_t>(axis)].empty()) {
    return axis_vars[static_cast<size_t>(axis)];
  }
  i64 inner = 1;
  for (i64 d = axis + 1; d < s.rank(); ++d) inner *= s[d];
  return StrFormat("(o / %lld %% %lld)", (long long)inner, (long long)s[axis]);
}

// Lowers one composite body to the statements of one C function.
class BodyLowering {
 public:
  BodyLowering(const Graph& body, const std::string& fn)
      : body_(body), fn_(fn) {}

  Result<std::string> Run(const std::string& what);

 private:
  // The C array holding value `id`; a constant is printed on first use.
  Result<std::string> Operand(NodeId id);
  // One loop nest computing `chain` (a loop op and the epilogues folded
  // into it) into `dst`.
  Status LowerLoop(const std::vector<const Node*>& chain,
                   const std::string& dst);
  // One block computing a non-elementwise op into `dst`.
  Status LowerBlock(const Node& n, const std::string& dst);
  // The statement applying epilogue `e` to the element value `v`.
  Result<std::string> Epilogue(const Node& e,
                               const std::vector<std::string>& axis_vars);

  const Graph& body_;
  const std::string fn_;
  std::map<NodeId, std::string> sym_;  // value -> C array expression
  std::string consts_, decls_, code_;
  int next_const_ = 0;
  bool gelu_table_ = false;
};

Result<std::string> BodyLowering::Operand(NodeId id) {
  const Node& n = body_.node(id);
  if (n.kind == NodeKind::kConstant && !sym_.count(id)) {
    const char* ct = CTypeName(n.value.dtype());
    if (ct == nullptr) {
      return Status::Unsupported("CPU kernel: constant dtype");
    }
    const std::string name = StrFormat("%s_k%d", fn_.c_str(), next_const_++);
    consts_ += EmitCArray(ct, name, n.value.NumElements(),
                          [&](i64 i) { return n.value.GetFlat(i); });
    sym_[id] = name;
  }
  auto it = sym_.find(id);
  if (it == sym_.end()) {
    return Status::Internal("CPU kernel: operand not materialized");
  }
  return it->second;
}

Result<std::string> BodyLowering::Epilogue(
    const Node& e, const std::vector<std::string>& axis_vars) {
  const Shape& s = e.type.shape;
  const char* ct = CTypeName(e.type.dtype);
  if (e.Is(OpId::kBiasAdd)) {
    // Wraps modulo 2^32 like nn::BiasAdd, then narrows to the op's type.
    HTVM_ASSIGN_OR_RETURN(b, Operand(e.inputs[1]));
    const std::string channel =
        AxisIndex(s, e.attrs.GetInt("axis", 1), axis_vars);
    return StrFormat("v = (%s)((uint32_t)v + (uint32_t)%s[%s]);", ct,
                     b.c_str(), channel.c_str());
  }
  if (e.Is(OpId::kRightShift)) {
    // Rounds half up as nn::RightShift does, without the overflowing
    // v + 2^(s-1).
    const Node& sh = body_.node(e.inputs[1]);
    if (sh.kind != NodeKind::kConstant) {
      return Status::Unsupported("CPU kernel: non-constant right_shift");
    }
    const i64 n = sh.value.NumElements();
    for (i64 i = 0; i < n; ++i) {
      if (sh.value.GetFlat(i) < 0 || sh.value.GetFlat(i) > 31) {
        return Status::Unsupported("CPU kernel: right_shift outside [0, 31]");
      }
    }
    if (n == 1) {
      const i64 v = sh.value.GetFlat(0);
      if (v == 0) return std::string();
      return StrFormat("v = (v >> %lld) + ((v >> %lld) & 1);", (long long)v,
                       (long long)(v - 1));
    }
    if (s.rank() < 2 || n != s[1]) {
      return Status::Unsupported("CPU kernel: right_shift not per channel");
    }
    HTVM_ASSIGN_OR_RETURN(table, Operand(sh.id));
    return StrFormat(
        "{ const int32_t s = %s[%s]; if (s > 0) v = (v >> s) + ((v >> (s - "
        "1)) & 1); }",
        table.c_str(), AxisIndex(s, 1, axis_vars).c_str());
  }
  if (e.Is(OpId::kClip) || e.Is(OpId::kCast)) {
    // v < lo ? lo : (v > hi ? hi : v), the interpreter's Clamp; a cast
    // saturates to its type's range.
    const bool clip = e.Is(OpId::kClip);
    if (!clip && e.type.dtype == DType::kInt32) return std::string();
    const i64 lo = clip ? e.attrs.GetInt("a_min", -128) : -128;
    const i64 hi = clip ? e.attrs.GetInt("a_max", 127) : 127;
    const std::string l = Literal(lo), h = Literal(hi);
    const std::string clamp = StrFormat("v < %s ? %s : (v > %s ? %s : v)",
                                        l.c_str(), l.c_str(), h.c_str(),
                                        h.c_str());
    if (FitsDType(lo, e.type.dtype) && FitsDType(hi, e.type.dtype)) {
      return "v = " + clamp + ";";
    }
    return StrFormat("v = (%s)(%s);", ct, clamp.c_str());
  }
  HTVM_CHECK(e.Is(OpId::kRelu));
  return std::string("v = v < 0 ? 0 : v;");
}

Status BodyLowering::LowerLoop(const std::vector<const Node*>& chain,
                               const std::string& dst) {
  const Node& root = *chain.front();
  std::string ops;
  for (const Node* n : chain) {
    if (CTypeName(n->type.dtype) == nullptr) {
      return Status::Unsupported("CPU kernel: dtype of op " + n->op);
    }
    ops += (ops.empty() ? "" : " -> ") + n->op;
  }
  HTVM_ASSIGN_OR_RETURN(a, Operand(root.inputs[0]));
  const TensorType& at = body_.node(root.inputs[0]).type;
  const Shape& os = root.type.shape;
  // The nest opens with `open`, ends with `close`, and has the element's
  // flat index `o` and its accumulator in scope at `indent`.
  std::string open, close, indent;
  std::vector<std::string> axis_vars;

  if (root.Is(OpId::kConv2d)) {
    HTVM_ASSIGN_OR_RETURN(w, Operand(root.inputs[1]));
    const TensorType& wt = body_.node(root.inputs[1]).type;
    const auto strides = root.attrs.GetIntVec("strides", {1, 1});
    HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(root.attrs, "conv2d"));
    open += StrFormat(
        "    enum { CC = %lld, KK = %lld, IY = %lld, IX = %lld, OY = %lld, "
        "OX = %lld,\n           FH = %lld, FW = %lld, SY = %lld, SX = %lld, "
        "PT = %lld, PL = %lld, GG = %lld };\n",
        (long long)at.shape[1], (long long)wt.shape[0], (long long)at.shape[2],
        (long long)at.shape[3], (long long)os[2], (long long)os[3],
        (long long)wt.shape[2], (long long)wt.shape[3], (long long)strides[0],
        (long long)strides[1], (long long)pad[0], (long long)pad[1],
        (long long)root.attrs.GetInt("groups", 1));
    open += StrFormat("    for (int bi = 0; bi < %lld; ++bi)\n",
                      (long long)at.shape[0]);
    open += "    for (int k = 0; k < KK; ++k) {\n";
    open += "      const int g = k / (KK / GG);\n";
    open += "      for (int oy = 0; oy < OY; ++oy)\n";
    open += "      for (int ox = 0; ox < OX; ++ox) {\n";
    open += "        uint32_t acc = 0;\n";
    open += "        for (int ci = 0; ci < CC / GG; ++ci) {\n";
    open += "          const int ic = g * (CC / GG) + ci;\n";
    open += "          for (int fy = 0; fy < FH; ++fy) {\n";
    open += "            const int iy = oy * SY + fy - PT;\n";
    open += "            if (iy < 0 || iy >= IY) continue;\n";
    open += "            for (int fx = 0; fx < FW; ++fx) {\n";
    open += "              const int ix = ox * SX + fx - PL;\n";
    open += "              if (ix < 0 || ix >= IX) continue;\n";
    open += StrFormat(
        "              acc += (uint32_t)((int32_t)%s[(((size_t)bi * CC + "
        "ic) * IY + iy) * IX + ix] *\n                     %s[(((size_t)k * "
        "(CC / GG) + ci) * FH + fy) * FW + fx]);\n",
        a.c_str(), w.c_str());
    open += "            }\n          }\n        }\n";
    open += "        const size_t o = (((size_t)bi * KK + k) * OY + oy) * OX "
            "+ ox;\n";
    indent = "        ";
    close = "      }\n    }\n";
    axis_vars = {"bi", "k", "oy", "ox"};
  } else if (root.Is(OpId::kDense) || root.Is(OpId::kMatmul)) {
    // dense is the matmul of a [N, I] batch with a [O, I] weight.
    HTVM_ASSIGN_OR_RETURN(b, Operand(root.inputs[1]));
    const TensorType& bt = body_.node(root.inputs[1]).type;
    const bool tb = root.attrs.GetInt("transpose_b", 1) != 0;
    const i64 ar = at.shape.rank(), br = bt.shape.rank();
    const i64 m = root.Is(OpId::kDense) ? 1 : at.shape[ar - 2];
    const i64 kk = at.shape[ar - 1];
    const i64 nn = tb ? bt.shape[br - 2] : bt.shape[br - 1];
    const i64 batch = at.shape.NumElements() / (m * kk);
    const i64 bb = bt.shape.NumElements() / (nn * kk);
    const std::string bidx =
        tb ? StrFormat("((size_t)(bi %% %lld) * %lld + c) * %lld + x",
                       (long long)bb, (long long)nn, (long long)kk)
           : StrFormat("((size_t)(bi %% %lld) * %lld + x) * %lld + c",
                       (long long)bb, (long long)kk, (long long)nn);
    open += StrFormat("    for (int bi = 0; bi < %lld; ++bi)\n",
                      (long long)batch);
    open += StrFormat("    for (int r = 0; r < %lld; ++r)\n", (long long)m);
    open += StrFormat("    for (int c = 0; c < %lld; ++c) {\n", (long long)nn);
    open += "      uint32_t acc = 0;\n";
    open += StrFormat("      for (int x = 0; x < %lld; ++x)\n", (long long)kk);
    open += StrFormat(
        "        acc += (uint32_t)((int32_t)%s[((size_t)bi * %lld + r) * "
        "%lld + x] * %s[%s]);\n",
        a.c_str(), (long long)m, (long long)kk, b.c_str(), bidx.c_str());
    open += StrFormat("      const size_t o = ((size_t)bi * %lld + r) * %lld + "
                      "c;\n",
                      (long long)m, (long long)nn);
    indent = "      ";
    close = "    }\n";
    axis_vars.assign(static_cast<size_t>(os.rank()), "");
    axis_vars.back() = "c";
    if (root.Is(OpId::kDense)) axis_vars.front() = "bi";
    if (root.Is(OpId::kMatmul)) axis_vars[axis_vars.size() - 2] = "r";
    if (root.Is(OpId::kMatmul) && os.rank() == 3) axis_vars.front() = "bi";
  } else {
    // add, or an epilogue op whose input is in memory: one flat loop.
    open += StrFormat("    for (size_t o = 0; o < %lld; ++o) {\n",
                      (long long)os.NumElements());
    if (root.Is(OpId::kAdd)) {
      HTVM_ASSIGN_OR_RETURN(b, Operand(root.inputs[1]));
      open += StrFormat("      const uint32_t acc = (uint32_t)%s[o] + "
                        "(uint32_t)%s[o];\n",
                        a.c_str(), b.c_str());
    }
    indent = "      ";
    close = "    }\n";
  }

  code_ += StrFormat("  {  // %s = %s\n", dst.c_str(), ops.c_str());
  code_ += open;
  // An epilogue root starts from its input; a loop op from its accumulator,
  // narrowed to its own type.
  const bool from_memory = IsEpilogue(root);
  code_ += indent + (from_memory ? StrFormat("int32_t v = %s[o];\n", a.c_str())
                                 : StrFormat("int32_t v = (%s)acc;\n",
                                             CTypeName(root.type.dtype)));
  for (size_t i = from_memory ? 0 : 1; i < chain.size(); ++i) {
    HTVM_ASSIGN_OR_RETURN(stmt, Epilogue(*chain[i], axis_vars));
    if (!stmt.empty()) code_ += indent + stmt + "\n";
  }
  code_ += indent + StrFormat("%s[o] = (%s)v;\n", dst.c_str(),
                              CTypeName(chain.back()->type.dtype));
  code_ += close + "  }\n";
  return Status::Ok();
}

Status BodyLowering::LowerBlock(const Node& n, const std::string& dst) {
  HTVM_ASSIGN_OR_RETURN(a, Operand(n.inputs[0]));
  const TensorType& at = body_.node(n.inputs[0]).type;
  const Shape& s = at.shape;
  const Shape& os = n.type.shape;
  if (n.Is(OpId::kTranspose)) {
    code_ += EmitTransposeLoop(s, n.attrs.GetIntVec("axes"), a, dst);
    return Status::Ok();
  }
  if (n.Is(OpId::kPad)) {
    HTVM_ASSIGN_OR_RETURN(
        pad, NormalizePadding(n.attrs.GetIntVec("pad_width", {0, 0, 0, 0}),
                              "pad"));
    code_ += StrFormat("  {  // %s = nn.pad(%s)\n", dst.c_str(), a.c_str());
    code_ += StrFormat("    memset(%s, 0, %lld);\n", dst.c_str(),
                       (long long)(os.NumElements() *
                                   DTypeSizeBytes(n.type.dtype)));
    code_ += StrFormat("    for (int nc = 0; nc < %lld; ++nc)\n",
                       (long long)(s[0] * s[1]));
    code_ += StrFormat("    for (int y = 0; y < %lld; ++y)\n", (long long)s[2]);
    code_ += StrFormat("    for (int x = 0; x < %lld; ++x)\n", (long long)s[3]);
    code_ += StrFormat(
        "      %s[((size_t)nc * %lld + y + %lld) * %lld + x + %lld] = "
        "%s[((size_t)nc * %lld + y) * %lld + x];\n",
        dst.c_str(), (long long)os[2], (long long)pad[0], (long long)os[3],
        (long long)pad[1], a.c_str(), (long long)s[2], (long long)s[3]);
    code_ += "  }\n";
    return Status::Ok();
  }
  // The rest run the int8 helpers of htvm_runtime.h.
  if (at.dtype != DType::kInt8 || n.type.dtype != DType::kInt8) {
    return Status::Unsupported("CPU kernel: " + n.op + " on non-int8 data");
  }
  if (n.Is(OpId::kAvgPool2d) || n.Is(OpId::kMaxPool2d)) {
    // Defaults as nn::AvgPool2d / nn::MaxPool2d resolve them.
    const auto pool = n.attrs.GetIntVec("pool_size", {2, 2});
    const auto strides = n.attrs.GetIntVec("strides", {});
    const i64 ph = pool.size() > 0 ? pool[0] : 2;
    const i64 pw = pool.size() > 1 ? pool[1] : ph;
    const i64 sy = strides.size() > 0 ? strides[0] : ph;
    const i64 sx = strides.size() > 1 ? strides[1] : pw;
    HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(n.attrs, "pool2d"));
    code_ += StrFormat(
        "  htvm_%s_pool2d(%s, %s, %lld, %lld, %lld, %lld, %lld, %lld, %lld, "
        "%lld, %lld, %lld, %lld);\n",
        n.Is(OpId::kAvgPool2d) ? "avg" : "max", a.c_str(), dst.c_str(),
        (long long)(s[0] * s[1]), (long long)s[2], (long long)s[3],
        (long long)ph, (long long)pw, (long long)sy, (long long)sx,
        (long long)pad[0], (long long)pad[1], (long long)os[2],
        (long long)os[3]);
  } else if (n.Is(OpId::kGlobalAvgPool2d)) {
    code_ += StrFormat("  htvm_global_avg_pool2d(%s, %s, %lld, %lld);\n",
                       a.c_str(), dst.c_str(), (long long)(s[0] * s[1]),
                       (long long)(s[2] * s[3]));
  } else if (n.Is(OpId::kSoftmax) || n.Is(OpId::kLayerNorm)) {
    const i64 cols = s[s.rank() - 1];
    code_ += StrFormat("  htvm_%s_int8(%s, %s, %lld, %lld);\n",
                       n.Is(OpId::kSoftmax) ? "softmax" : "layernorm",
                       a.c_str(), dst.c_str(),
                       (long long)(s.NumElements() / cols), (long long)cols);
  } else if (n.Is(OpId::kGelu)) {
    // The reference kernel's table, so the deployed gelu is bit-identical
    // by construction.
    const std::string table = fn_ + "_gelu";
    if (!gelu_table_) {
      consts_ += EmitCArray("int8_t", table, 256, [](i64 i) {
        return nn::GeluTable()[static_cast<size_t>(i)];
      });
      gelu_table_ = true;
    }
    code_ += StrFormat(
        "  for (size_t o = 0; o < %lld; ++o) %s[o] = %s[%s[o] + 128];\n",
        (long long)s.NumElements(), dst.c_str(), table.c_str(), a.c_str());
  } else {
    return Status::Unsupported("no CPU C lowering for op " + n.op);
  }
  return Status::Ok();
}

Result<std::string> BodyLowering::Run(const std::string& what) {
  const Graph& body = body_;
  if (body.outputs().size() != 1) {
    return Status::Unsupported("CPU kernel: one output required");
  }
  std::string params;
  for (size_t i = 0; i < body.inputs().size(); ++i) {
    const Node& in = body.node(body.inputs()[i]);
    const char* ct = CTypeName(in.type.dtype);
    if (ct == nullptr) return Status::Unsupported("CPU kernel: input dtype");
    sym_[in.id] = StrFormat("in%zu", i);
    params += StrFormat("const %s* in%zu, ", ct, i);
  }
  const Node& out_node = body.node(body.outputs()[0]);
  const char* out_ct = CTypeName(out_node.type.dtype);
  if (out_ct == nullptr) return Status::Unsupported("CPU kernel: output dtype");

  // An epilogue folds into the loop op producing its input when it is that
  // value's only reader (the body output counts as one).
  std::vector<int> uses(static_cast<size_t>(body.NumNodes()), 0);
  for (const Node& n : body.nodes()) {
    for (NodeId in : n.inputs) ++uses[static_cast<size_t>(in)];
  }
  ++uses[static_cast<size_t>(out_node.id)];
  std::vector<const Node*> folds_into(uses.size(), nullptr);
  for (const Node& n : body.nodes()) {
    if (n.kind != NodeKind::kOp || !IsEpilogue(n)) continue;
    const Node& p = body.node(n.inputs[0]);
    if (p.kind == NodeKind::kOp && OpensLoop(p) &&
        uses[static_cast<size_t>(p.id)] == 1) {
      folds_into[static_cast<size_t>(p.id)] = &n;
    }
  }

  // The value the output reshapes is computed straight into `out`.
  NodeId stored = out_node.id;
  while (body.node(stored).Is(OpId::kReshape) ||
         body.node(stored).Is(OpId::kFlatten)) {
    stored = body.node(stored).inputs[0];
  }
  if (body.node(stored).kind == NodeKind::kOp) sym_[stored] = "out";

  for (const Node& n : body.nodes()) {
    if (n.kind != NodeKind::kOp ||
        folds_into[static_cast<size_t>(n.id)] != nullptr) {
      continue;
    }
    if (n.Is(OpId::kReshape) || n.Is(OpId::kFlatten)) {
      HTVM_ASSIGN_OR_RETURN(a, Operand(n.inputs[0]));
      sym_[n.id] = a;  // layout-free: alias the producer's buffer
      continue;
    }
    const char* ct = CTypeName(n.type.dtype);
    if (ct == nullptr) {
      return Status::Unsupported("CPU kernel: dtype of op " + n.op);
    }
    if (!sym_.count(n.id)) {
      const std::string t = "t" + std::to_string(n.id);
      decls_ += StrFormat("  static %s %s[%lld];\n", ct, t.c_str(),
                          (long long)n.type.shape.NumElements());
      sym_[n.id] = t;
    }
    if (OpensLoop(n)) {
      std::vector<const Node*> chain = {&n};
      while (folds_into[static_cast<size_t>(chain.front()->inputs[0])] ==
             chain.front()) {
        chain.insert(chain.begin(), &body.node(chain.front()->inputs[0]));
      }
      HTVM_RETURN_IF_ERROR(LowerLoop(chain, sym_[n.id]));
    } else {
      HTVM_RETURN_IF_ERROR(LowerBlock(n, sym_[n.id]));
    }
  }
  HTVM_ASSIGN_OR_RETURN(result, Operand(out_node.id));
  if (result != "out") {
    code_ += StrFormat("  memcpy(out, %s, %lld);\n", result.c_str(),
                       (long long)(out_node.type.shape.NumElements() *
                                   DTypeSizeBytes(out_node.type.dtype)));
  }

  std::string c = consts_;
  c += StrFormat("// %s: %s on the RISC-V core\n", fn_.c_str(), what.c_str());
  c += StrFormat("void %s(%s%s* out) {\n", fn_.c_str(), params.c_str(),
                 out_ct);
  c += decls_ + code_ + "}\n";
  return c;
}

}  // namespace

const char* CTypeName(DType t) {
  switch (t) {
    case DType::kInt8:
    case DType::kTernary: return "int8_t";
    case DType::kInt32: return "int32_t";
    default: return nullptr;
  }
}

std::string EmitCArray(const char* ctype, const std::string& name, i64 count,
                       const std::function<i64(i64)>& value) {
  std::string out = StrFormat("static const %s %s[%lld] = {\n    ", ctype,
                              name.c_str(), (long long)count);
  for (i64 i = 0; i < count; ++i) {
    out += std::to_string(value(i));
    if (i + 1 < count) out += (i % 20 == 19) ? ",\n    " : ", ";
  }
  out += "};\n";
  return out;
}

Result<std::string> EmitCpuKernelC(const Node& composite,
                                   const std::string& fn_name) {
  HTVM_CHECK(composite.kind == NodeKind::kComposite);
  return BodyLowering(*composite.body, fn_name).Run(composite.op);
}

}  // namespace htvm::tvmgen
