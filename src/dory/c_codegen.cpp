#include "dory/c_codegen.hpp"

#include "support/string_utils.hpp"
#include "tensor/quantize.hpp"

namespace htvm::dory {
namespace {

// Shared enum block with the layer geometry and tile grid.
std::string GeometryEnums(const AccelLayerSpec& s, const TileSolution& sol) {
  std::string out;
  out += StrFormat(
      "  enum { C = %lld, K = %lld, IY = %lld, IX = %lld, OY = %lld, "
      "OX = %lld,\n",
      (long long)s.c, (long long)s.k, (long long)s.iy, (long long)s.ix,
      (long long)s.oy, (long long)s.ox);
  out += StrFormat(
      "         KH = %lld, KW = %lld, SY = %lld, SX = %lld, PT = %lld, "
      "PL = %lld,\n",
      (long long)s.kh, (long long)s.kw, (long long)s.sy, (long long)s.sx,
      (long long)s.pad_t, (long long)s.pad_l);
  out += StrFormat(
      "         CT = %lld, KT = %lld, OYT = %lld, OXT = %lld,\n",
      (long long)sol.c_t, (long long)sol.k_t, (long long)sol.oy_t,
      (long long)sol.ox_t);
  out += StrFormat(
      "         NC = %lld, NK = %lld, NY = %lld, NX = %lld,\n",
      (long long)sol.n_c, (long long)sol.n_k, (long long)sol.n_y,
      (long long)sol.n_x);
  out += StrFormat("         SHIFT = %lld, RELU = %d };\n",
                   (long long)s.requant.shift, s.requant.relu ? 1 : 0);
  return out;
}

std::string WeightOffsetTable(const std::vector<i64>& offsets) {
  std::vector<std::string> items;
  items.reserve(offsets.size());
  for (i64 off : offsets) items.push_back(std::to_string(off));
  return "  static const uint32_t w_off[] = {" + Join(items, ", ") + "};\n";
}

// The kernel function of every layer kind: one loop nest in the order
// BuildScheduleWithSolution lists the steps, k, y and x outer and c inner.
// Each step fetches its input tile (and weight tile), calls the driver,
// and on its last c step stores its output tile. Depthwise and add reduce
// over no channel, so they make one k pass whose output channels follow c.
std::string EmitTileLoops(const AccelSchedule& sched, const std::string& fn,
                          const std::string& wsym, const std::string& bsym) {
  const AccelLayerSpec& s = sched.spec;
  const TileSolution& sol = sched.solution;
  const bool analog = sched.target == AccelTarget::kAnalog;
  const bool add = s.kind == LayerKind::kAdd;
  const bool per_channel = add || s.kind == LayerKind::kDwConv2d;
  // Conv, depthwise and add move [C, Y, X] tiles one channel plane at a
  // time; dense and matmul move one [rows, C] tile.
  const bool planes =
      s.kind != LayerKind::kDense && s.kind != LayerKind::kMatmul;
  const bool fetch_w = !analog && !add;
  const std::vector<std::string> ins =
      add ? std::vector<std::string>{"a", "b"} : std::vector<std::string>{"in"};
  const i64 out_tile = sol.k_t * sol.oy_t * sol.ox_t;

  std::string c;
  c += StrFormat(
      "// %s: %s C=%lld K=%lld %lldx%lld k%lldx%lld s%lldx%lld -> %s "
      "accelerator\n",
      fn.c_str(), LayerKindName(s.kind), (long long)s.c, (long long)s.k,
      (long long)s.iy, (long long)s.ix, (long long)s.kh, (long long)s.kw,
      (long long)s.sy, (long long)s.sx, AccelTargetName(sched.target));
  c += StrFormat(
      "// tile grid k%lld c%lld y%lld x%lld (%zu tiles), %lld B L1 per set\n",
      (long long)sol.n_k, (long long)sol.n_c, (long long)sol.n_y,
      (long long)sol.n_x, sched.steps.size(), (long long)sol.l1_bytes);
  c += "void " + fn + "(";
  for (const std::string& in : ins) c += "const int8_t* l2_" + in + ", ";
  c += "int8_t* l2_out) {\n";
  c += GeometryEnums(s, sol);
  for (const std::string& in : ins) {
    c += StrFormat("  static int8_t l1_%s[2][%lld];\n", in.c_str(),
                   (long long)(sol.c_t * sol.iy_t * sol.ix_t));
  }
  c += StrFormat("  static int8_t l1_out[2][%lld];\n", (long long)out_tile);
  if (sol.psum) {
    c += StrFormat("  static int32_t l1_psum[%lld];\n", (long long)out_tile);
  }
  if (fetch_w) {
    c += StrFormat("  static int8_t l1_w[%lld];\n",
                   (long long)((per_channel ? 1 : sol.k_t) * sol.c_t * s.kh *
                               s.kw));
    c += WeightOffsetTable(TileMajorWeightOffsets(sched));
  }
  if (analog) {
    c += StrFormat(
        "  diana_analog_load_weights(%s, (uint32_t)(C * KH * KW), "
        "(uint32_t)K);\n",
        wsym.c_str());
  }
  c += "  int db = 0;\n";
  c += "  for (int kt = 0; kt < NK; ++kt) {\n";
  c += "    for (int yt = 0; yt < NY; ++yt) {\n";
  c += "      for (int xt = 0; xt < NX; ++xt) {\n";
  c += "        const int y0 = yt * OYT, x0 = xt * OXT;\n";
  c += "        const int oy_t = OY - y0 < OYT ? OY - y0 : OYT;\n";
  c += "        const int ox_t = OX - x0 < OXT ? OX - x0 : OXT;\n";
  // The input window [iy_lo, iy_hi) x [ix_lo, ix_hi), clipped to the input.
  c += "        const int iy_lo = y0 * SY - PT, iy_hi = iy_lo + (oy_t - 1) "
       "* SY + KH;\n";
  c += "        const int ix_lo = x0 * SX - PL, ix_hi = ix_lo + (ox_t - 1) "
       "* SX + KW;\n";
  c += "        const int iy0 = iy_lo < 0 ? 0 : iy_lo;\n";
  c += "        const int ix0 = ix_lo < 0 ? 0 : ix_lo;\n";
  c += "        const int iy_t = (iy_hi < IY ? iy_hi : IY) - iy0;\n";
  c += "        const int ix_t = (ix_hi < IX ? ix_hi : IX) - ix0;\n";
  c += "        for (int ct = 0; ct < NC; ++ct, db ^= 1) {\n";
  c += "          const int c0 = ct * CT, c_t = C - c0 < CT ? C - c0 : CT;\n";
  c += per_channel
           ? "          const int k0 = c0, k_t = c_t;\n"
           : "          const int k0 = kt * KT, k_t = K - k0 < KT ? K - k0 "
             ": KT;\n";
  if (planes) {
    c += "          for (int ch = 0; ch < c_t; ++ch) {\n";
    for (const std::string& in : ins) {
      c += StrFormat(
          "            htvm_dma_2d(l1_%s[db] + (size_t)ch * iy_t * ix_t,\n"
          "                        l2_%s + ((size_t)(c0 + ch) * IY + iy0) * "
          "IX + ix0,\n"
          "                        (uint32_t)iy_t, (uint32_t)ix_t, "
          "(uint32_t)ix_t, (uint32_t)IX);\n",
          in.c_str(), in.c_str());
    }
    c += "          }\n";
  } else {
    c += "          htvm_dma_2d(l1_in[db], l2_in + (size_t)iy0 * C + c0, "
         "(uint32_t)iy_t,\n"
         "                      (uint32_t)c_t, (uint32_t)c_t, (uint32_t)C);\n";
  }
  if (fetch_w) {
    c += StrFormat(
        "          htvm_dma_1d(l1_w, %s + w_off[kt * NC + ct],\n"
        "                      (uint32_t)((size_t)%s * KH * KW));\n",
        wsym.c_str(), per_channel ? "c_t" : "k_t * c_t");
  }
  c += StrFormat(
      "          const htvm_accel_tile_t t = {\n"
      "              .k_t = k_t, .c_t = c_t, .oy_t = oy_t, .ox_t = ox_t,\n"
      "              .iy_t = iy_t, .ix_t = ix_t, .kh = KH, .kw = KW, .sy = "
      "SY,\n"
      "              .sx = SX, .pad_t = iy0 - iy_lo, .pad_l = ix0 - ix_lo,\n"
      "              .first_c = %s, .last_c = %s, .shift = SHIFT, "
      ".relu = RELU};\n",
      per_channel ? "1" : "ct == 0", per_channel ? "1" : "ct == NC - 1");
  std::string args;
  for (const std::string& in : ins) args += "l1_" + in + "[db], ";
  if (fetch_w) args += "l1_w, ";
  if (!add) args += bsym + " + k0, ";
  args += "l1_out[db], ";
  if (!analog && !per_channel) {
    args += sol.psum ? "l1_psum, " : "(int32_t*)0, ";
  }
  // The digital drivers are named after LayerKindName; the analog macro
  // runs conv and dense alike.
  c += StrFormat("          diana_%s_%s(%s&t);\n",
                 analog ? "analog" : "digital",
                 analog ? "conv2d" : LayerKindName(s.kind), args.c_str());
  c += "          if (t.last_c) {\n";
  if (planes) {
    c += "            for (int ch = 0; ch < k_t; ++ch) {\n"
         "              htvm_dma_2d(l2_out + ((size_t)(k0 + ch) * OY + y0) * "
         "OX + x0,\n"
         "                          l1_out[db] + (size_t)ch * oy_t * ox_t,\n"
         "                          (uint32_t)oy_t, (uint32_t)ox_t, "
         "(uint32_t)OX,\n"
         "                          (uint32_t)ox_t);\n"
         "            }\n";
  } else {
    c += "            htvm_dma_2d(l2_out + (size_t)y0 * K + k0, l1_out[db], "
         "(uint32_t)oy_t,\n"
         "                        (uint32_t)k_t, (uint32_t)K, "
         "(uint32_t)k_t);\n";
  }
  c += "          }\n        }\n      }\n    }\n  }\n}\n";
  return c;
}

}  // namespace

// Both functions read a weight as [K, C, KH * KW], a depthwise one as a
// single k row of C channels, tiled by the solution's (k_t, c_t).
std::vector<i64> TileMajorWeightOffsets(const AccelSchedule& sched) {
  const AccelLayerSpec& s = sched.spec;
  const TileSolution& sol = sched.solution;
  const i64 rows = s.kind == LayerKind::kDwConv2d ? 1 : s.k;
  std::vector<i64> offsets;
  i64 running = 0;
  for (i64 k0 = 0; k0 < rows; k0 += sol.k_t) {
    for (i64 c0 = 0; c0 < s.c; c0 += sol.c_t) {
      offsets.push_back(running);
      running += std::min(sol.k_t, rows - k0) * std::min(sol.c_t, s.c - c0) *
                 s.kh * s.kw;
    }
  }
  return offsets;
}

Tensor TileMajorWeights(const AccelSchedule& sched, const Tensor& weight) {
  const AccelLayerSpec& s = sched.spec;
  const TileSolution& sol = sched.solution;
  const i64 rows = s.kind == LayerKind::kDwConv2d ? 1 : s.k;
  const i64 inner = s.kh * s.kw;
  const std::vector<i64> offsets = TileMajorWeightOffsets(sched);
  Tensor out(Shape{weight.NumElements()}, weight.dtype());
  for (i64 k = 0; k < rows; ++k) {
    for (i64 c = 0; c < s.c; ++c) {
      // Element (k - k0, c - c0) of the (k0, c0) tile, row-major in it.
      const i64 c0 = c - c % sol.c_t;
      const i64 at =
          offsets[static_cast<size_t>(k / sol.k_t * sol.n_c + c / sol.c_t)] +
          (k % sol.k_t * std::min(sol.c_t, s.c - c0) + c - c0) * inner;
      for (i64 i = 0; i < inner; ++i) {
        out.SetFlat(at + i, weight.GetFlat((k * s.c + c) * inner + i));
      }
    }
  }
  return out;
}

Result<std::string> EmitAccelKernelC(const AccelSchedule& sched,
                                     const std::string& fn_name,
                                     const std::string& weights_sym,
                                     const std::string& bias_sym) {
  if (sched.spec.requant.per_channel()) {
    // The driver tile descriptor carries a single shift; extending it is
    // straightforward but not needed by the reproduced experiments.
    return Status::Unsupported(
        "per-channel requantization not supported by the accel C emitter");
  }
  return EmitTileLoops(sched, fn_name, weights_sym, bias_sym);
}

}  // namespace htvm::dory
