#include "dory/depth_first.hpp"

#include <algorithm>

#include "hw/digital_accel.hpp"
#include "hw/dma.hpp"
#include "nn/kernels.hpp"
#include "support/math_utils.hpp"
#include "support/string_utils.hpp"

namespace htvm::dory {
namespace {

bool ConvLike(LayerKind kind) {
  return kind == LayerKind::kConv2d || kind == LayerKind::kDwConv2d;
}

i64 WeightBytes(const AccelLayerSpec& s) {
  return s.WeightElems() + s.k * 4;  // int8 weights + int32 bias
}

// Digital compute cycles of one layer over a tile of output geometry
// (oy, ox) with full channels.
i64 LayerTileCompute(const hw::DianaConfig& cfg, const AccelLayerSpec& s,
                     i64 oy_t, i64 ox_t) {
  hw::ConvTileGeom g;
  g.k = s.k;
  g.c = s.c;
  g.oy = oy_t;
  g.ox = ox_t;
  g.kh = s.kh;
  g.kw = s.kw;
  const i64 out_elems = s.k * oy_t * ox_t;
  i64 cycles = s.kind == LayerKind::kDwConv2d
                   ? hw::DigitalDwConvComputeCycles(cfg.digital, g)
                   : hw::DigitalConvComputeCycles(cfg.digital, g);
  return cycles + hw::DigitalPostCycles(cfg.digital, out_elems);
}

}  // namespace

Result<FusedPairSpec> AnalyzeFusedPairBody(const Graph& body) {
  // Exactly two conv anchors; node-id order is producer order, so the
  // first anchor found feeds the second.
  std::vector<const Node*> anchors;
  for (const Node& n : body.nodes()) {
    if (n.Is(OpId::kConv2d)) anchors.push_back(&n);
    if (n.Is(OpId::kDense) || n.Is(OpId::kAdd) || n.Is(OpId::kMatmul)) {
      return Status::Unsupported("fused pair: non-conv anchor in body");
    }
  }
  if (anchors.size() != 2) {
    return Status::Unsupported("fused pair: body needs exactly two convs");
  }
  // Requant params are not read: the fused kernel replays its body on the
  // interpreter, so only the cost-relevant geometry matters here.
  FusedPairSpec pair;
  HTVM_ASSIGN_OR_RETURN(first, AnalyzeAnchor(body, *anchors[0]));
  HTVM_ASSIGN_OR_RETURN(second, AnalyzeAnchor(body, *anchors[1]));
  pair.first = first;
  pair.second = second;
  HTVM_RETURN_IF_ERROR(ValidateFusedPair(pair));
  return pair;
}

Status ValidateFusedPair(const FusedPairSpec& pair) {
  if (!ConvLike(pair.first.kind) || !ConvLike(pair.second.kind)) {
    return Status::Unsupported("depth-first fusion needs conv-like layers");
  }
  if (pair.second.c != pair.first.k) {
    return Status::InvalidArgument(
        "fused pair: channel mismatch between layers");
  }
  if (pair.second.iy != pair.first.oy || pair.second.ix != pair.first.ox) {
    return Status::InvalidArgument(
        "fused pair: spatial mismatch between layers");
  }
  return Status::Ok();
}

Result<FusedSchedule> BuildDepthFirstSchedule(const FusedPairSpec& pair,
                                              const hw::DianaConfig& cfg,
                                              const TilerOptions& options) {
  HTVM_RETURN_IF_ERROR(ValidateFusedPair(pair));
  const AccelLayerSpec& l1 = pair.first;
  const AccelLayerSpec& l2 = pair.second;
  const i64 budget =
      options.l1_budget_bytes > 0 ? options.l1_budget_bytes : cfg.l1_bytes;
  if (WeightBytes(l1) + WeightBytes(l2) > cfg.digital.weight_mem_bytes) {
    return Status::ResourceExhausted(
        "fused pair: both weight sets must be resident");
  }

  // --- pick the largest feasible output tile of layer 2 -------------------
  FusedTileSolution best;
  bool found = false;
  i64 best_score = -1;
  for (const i64 ox2_t : TileCandidates(l2.ox, 4)) {
    for (const i64 oy2_t : TileCandidates(l2.oy, 4)) {
      // Padded-2 intermediate extent the tile consumes.
      const i64 py2 = (oy2_t - 1) * l2.sy + l2.kh;
      const i64 px2 = (ox2_t - 1) * l2.sx + l2.kw;
      const i64 iy2 = std::min(py2, l1.oy);  // real intermediate rows
      const i64 ix2 = std::min(px2, l1.ox);
      const i64 iy1 = std::min((iy2 - 1) * l1.sy + l1.kh, l1.iy);
      const i64 ix1 = std::min((ix2 - 1) * l1.sx + l1.kw, l1.ix);
      const i64 in1 = l1.c * iy1 * ix1;
      const i64 inter = l1.k * py2 * px2;  // zero-padded tile buffer
      const i64 out2 = l2.k * oy2_t * ox2_t;
      const i64 psum = 4 * std::max(l1.k * iy2 * ix2, out2);
      const i64 bytes = in1 + inter + out2 + psum;
      if (bytes >= budget) continue;
      // Prefer full-width tiles (contiguous transfers, minimal x halo),
      // then the largest tile (least recompute).
      const i64 score =
          (ox2_t == l2.ox ? (i64{1} << 40) : 0) + oy2_t * ox2_t;
      if (score > best_score) {
        best_score = score;
        best.oy2_t = oy2_t;
        best.ox2_t = ox2_t;
        best.iy2_t = iy2;
        best.ix2_t = ix2;
        best.iy1_t = iy1;
        best.ix1_t = ix1;
        best.l1_bytes = bytes;
        found = true;
      }
    }
  }
  if (!found) {
    return Status::ResourceExhausted(
        "depth-first fusion infeasible within the L1 budget");
  }
  best.n_y = CeilDiv(l2.oy, best.oy2_t);
  best.n_x = CeilDiv(l2.ox, best.ox2_t);
  best.needs_tiling = best.n_y * best.n_x > 1;

  // --- cost aggregation ----------------------------------------------------
  FusedSchedule sched;
  sched.pair = pair;
  sched.solution = best;
  sched.macs = l1.Macs() + l2.Macs();
  sched.intermediate_bytes = l1.OutputBytes();

  i64 layer1_tile_macs_total = 0;
  for (i64 y0 = 0; y0 < l2.oy; y0 += best.oy2_t) {
    for (i64 x0 = 0; x0 < l2.ox; x0 += best.ox2_t) {
      const i64 oy2 = std::min(best.oy2_t, l2.oy - y0);
      const i64 ox2 = std::min(best.ox2_t, l2.ox - x0);
      const i64 iy2 = std::min((oy2 - 1) * l2.sy + l2.kh, l1.oy);
      const i64 ix2 = std::min((ox2 - 1) * l2.sx + l2.kw, l1.ox);
      const i64 iy1 = std::min((iy2 - 1) * l1.sy + l1.kh, l1.iy);
      const i64 ix1 = std::min((ix2 - 1) * l1.sx + l1.kw, l1.ix);
      sched.compute_cycles += LayerTileCompute(cfg, l1, iy2, ix2) +
                              LayerTileCompute(cfg, l2, oy2, ox2);
      layer1_tile_macs_total +=
          (l1.kind == LayerKind::kDwConv2d ? l1.c : l1.k * l1.c) * iy2 *
          ix2 * l1.kh * l1.kw;
      sched.act_dma_cycles +=
          hw::ActTileDmaCost(cfg.dma, l1.c, l1.iy, l1.ix, l1.c, iy1, ix1) +
          hw::ActTileDmaCost(cfg.dma, l2.k, l2.oy, l2.ox, l2.k, oy2, ox2);
      sched.overhead_cycles += 2 * cfg.digital.tile_setup_cycles;
    }
  }
  const i64 layer1_macs =
      (l1.kind == LayerKind::kDwConv2d ? l1.c : l1.k * l1.c) * l1.oy *
      l1.ox * l1.kh * l1.kw;
  sched.recompute_macs = layer1_tile_macs_total - layer1_macs;
  sched.weight_dma_cycles =
      hw::DmaCost1d(cfg.dma, WeightBytes(l1) + WeightBytes(l2));
  sched.overhead_cycles += cfg.runtime_call_overhead;

  const i64 busy = sched.compute_cycles + sched.weight_dma_cycles;
  const i64 exposed = options.double_buffer
                          ? std::max<i64>(0, sched.act_dma_cycles - busy) +
                                2 * cfg.dma.setup_cycles
                          : sched.act_dma_cycles;
  sched.full_cycles = busy + exposed + sched.overhead_cycles;
  return sched;
}

Result<Tensor> ExecuteDepthFirst(const FusedSchedule& schedule,
                                 const Tensor& input, const Tensor& w1,
                                 const Tensor& b1, const Tensor& w2,
                                 const Tensor& b2) {
  const AccelLayerSpec& l1 = schedule.pair.first;
  const AccelLayerSpec& l2 = schedule.pair.second;
  const FusedTileSolution& sol = schedule.solution;

  // Padded layer-1 input, materialized once (L2-side virtual padding).
  Tensor padded1(Shape{1, l1.c, l1.iy + l1.pad_t + l1.pad_b,
                       l1.ix + l1.pad_l + l1.pad_r},
                 DType::kInt8);
  for (i64 c = 0; c < l1.c; ++c) {
    for (i64 y = 0; y < l1.iy; ++y) {
      for (i64 x = 0; x < l1.ix; ++x) {
        padded1.Set4(0, c, y + l1.pad_t, x + l1.pad_l, input.At4(0, c, y, x));
      }
    }
  }

  Tensor out(Shape{1, l2.k, l2.oy, l2.ox}, DType::kInt8);
  for (i64 y0 = 0; y0 < l2.oy; y0 += sol.oy2_t) {
    for (i64 x0 = 0; x0 < l2.ox; x0 += sol.ox2_t) {
      const i64 oy2 = std::min(sol.oy2_t, l2.oy - y0);
      const i64 ox2 = std::min(sol.ox2_t, l2.ox - x0);
      // Padded-2 coordinate window this tile reads.
      const i64 a2y = y0 * l2.sy, a2x = x0 * l2.sx;
      const i64 py2 = (oy2 - 1) * l2.sy + l2.kh;
      const i64 px2 = (ox2 - 1) * l2.sx + l2.kw;
      // Real intermediate rows/cols to compute.
      const i64 r0y = std::max<i64>(a2y - l2.pad_t, 0);
      const i64 r1y = std::min(a2y + py2 - 1 - l2.pad_t, l1.oy - 1);
      const i64 r0x = std::max<i64>(a2x - l2.pad_l, 0);
      const i64 r1x = std::min(a2x + px2 - 1 - l2.pad_l, l1.ox - 1);
      const i64 my = r1y - r0y + 1, mx = r1x - r0x + 1;

      // Layer-1 input tile (from the padded input).
      const i64 a1y = r0y * l1.sy, a1x = r0x * l1.sx;
      const i64 iy1 = (my - 1) * l1.sy + l1.kh;
      const i64 ix1 = (mx - 1) * l1.sx + l1.kw;
      Tensor in1(Shape{1, l1.c, iy1, ix1}, DType::kInt8);
      for (i64 c = 0; c < l1.c; ++c) {
        for (i64 y = 0; y < iy1; ++y) {
          for (i64 x = 0; x < ix1; ++x) {
            in1.Set4(0, c, y, x, padded1.At4(0, c, a1y + y, a1x + x));
          }
        }
      }
      // Layer 1 on the tile.
      auto acc1 = nn::Conv2d(in1, w1, {l1.sy, l1.sx}, {0, 0, 0, 0},
                             l1.kind == LayerKind::kDwConv2d ? l1.c : 1);
      if (!acc1.ok()) return acc1.status();
      auto biased1 = nn::BiasAdd(*acc1, b1, 1);
      if (!biased1.ok()) return biased1.status();
      const Tensor inter = RequantizeTensor(*biased1, l1.requant);
      HTVM_CHECK(inter.shape()[2] == my && inter.shape()[3] == mx);

      // Zero-padded layer-2 input tile in padded-2 coordinates.
      Tensor in2(Shape{1, l2.c, py2, px2}, DType::kInt8);
      for (i64 c = 0; c < l2.c; ++c) {
        for (i64 y = 0; y < my; ++y) {
          for (i64 x = 0; x < mx; ++x) {
            in2.Set4(0, c, r0y + l2.pad_t - a2y + y, r0x + l2.pad_l - a2x + x,
                     inter.At4(0, c, y, x));
          }
        }
      }
      auto acc2 = nn::Conv2d(in2, w2, {l2.sy, l2.sx}, {0, 0, 0, 0},
                             l2.kind == LayerKind::kDwConv2d ? l2.c : 1);
      if (!acc2.ok()) return acc2.status();
      auto biased2 = nn::BiasAdd(*acc2, b2, 1);
      if (!biased2.ok()) return biased2.status();
      const Tensor tile = RequantizeTensor(*biased2, l2.requant);
      HTVM_CHECK(tile.shape()[2] == oy2 && tile.shape()[3] == ox2);
      for (i64 k = 0; k < l2.k; ++k) {
        for (i64 y = 0; y < oy2; ++y) {
          for (i64 x = 0; x < ox2; ++x) {
            out.Set4(0, k, y0 + y, x0 + x, tile.At4(0, k, y, x));
          }
        }
      }
    }
  }
  return out;
}

}  // namespace htvm::dory
