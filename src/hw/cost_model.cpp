#include "hw/cost_model.hpp"

#include <algorithm>

#include "hw/analog_accel.hpp"
#include "hw/digital_accel.hpp"
#include "hw/dma.hpp"
#include "support/math_utils.hpp"

namespace htvm::hw {
namespace {

i64 LayerWeightElems(const TiledLayerGeom& g) {
  switch (g.op) {
    case TiledOp::kConv2d:
      return g.k * g.c * g.kh * g.kw;
    case TiledOp::kDwConv2d:
      return g.c * g.kh * g.kw;
    case TiledOp::kDense:
    case TiledOp::kMatmul:
      return g.k * g.c;
    case TiledOp::kAdd:
      return 0;
  }
  return 0;
}

i64 TileWeightElems(const TiledLayerGeom& g) {
  switch (g.op) {
    case TiledOp::kConv2d:
      return g.k_t * g.c_t * g.kh * g.kw;
    case TiledOp::kDwConv2d:
      return g.c_t * g.kh * g.kw;
    case TiledOp::kDense:
    case TiledOp::kMatmul:
      return g.k_t * g.c_t;
    case TiledOp::kAdd:
      return 0;
  }
  return 0;
}

}  // namespace

i64 CostModel::EstimateAccelFullCycles(AccelEngine engine,
                                       const TiledLayerGeom& g) const {
  // Tile grid at the solver's (unclipped) shape. Depthwise and add tile
  // channels on the c axis only; their k loop runs once.
  const bool chan_mirrored =
      g.op == TiledOp::kDwConv2d || g.op == TiledOp::kAdd;
  const i64 n_c = CeilDiv(g.c, g.c_t);
  const i64 n_k = chan_mirrored ? 1 : CeilDiv(g.k, g.k_t);
  const i64 n_y = CeilDiv(g.oy, g.oy_t);
  const i64 n_x = CeilDiv(g.ox, g.ox_t);
  const i64 spatial = n_y * n_x;

  i64 compute = 0;
  i64 weight_dma = 0;
  i64 act_dma = 0;
  i64 setup = 0;

  if (engine == AccelEngine::kAnalog) {
    // The macro holds the whole C*kh*kw patch and all K columns; tiles only
    // cut space, every step finalizes its outputs.
    AnalogLayerGeom ag;
    ag.k = g.k;
    ag.c = g.c;
    ag.kh = g.kh;
    ag.kw = g.kw;
    ag.oy = g.oy_t;
    ag.ox = g.ox_t;
    const i64 out_elems = g.k * g.oy_t * g.ox_t;
    compute = spatial * (AnalogComputeCycles(cfg_.analog, ag) +
                         AnalogPostCycles(out_elems));
    AnalogLayerGeom whole = ag;
    whole.oy = g.oy;
    whole.ox = g.ox;
    weight_dma = cfg_.analog.layer_setup_cycles +
                 AnalogWeightLoadCycles(cfg_.analog, whole);
    act_dma = spatial * (ActTileDmaCost(cfg_.dma, g.c, g.iy, g.ix, g.c_t,
                                        g.iy_t, g.ix_t) +
                         ActTileDmaCost(cfg_.dma, g.k, g.oy, g.ox, g.k_t,
                                        g.oy_t, g.ox_t));
    setup = spatial * cfg_.analog.tile_setup_cycles;
  } else {
    const i64 steps = n_k * spatial * n_c;   // c innermost
    const i64 out_tiles = n_k * spatial;     // steps with last_c set
    const i64 out_elems = g.k_t * g.oy_t * g.ox_t;

    ConvTileGeom dg;
    dg.k = g.k_t;
    dg.c = g.c_t;
    dg.iy = g.iy_t;
    dg.ix = g.ix_t;
    dg.oy = g.oy_t;
    dg.ox = g.ox_t;
    dg.kh = g.kh;
    dg.kw = g.kw;
    switch (g.op) {
      case TiledOp::kConv2d:
        compute = steps * DigitalConvComputeCycles(cfg_.digital, dg) +
                  out_tiles * DigitalPostCycles(cfg_.digital, out_elems);
        break;
      case TiledOp::kDwConv2d:
        compute = steps * (DigitalDwConvComputeCycles(cfg_.digital, dg) +
                           DigitalPostCycles(cfg_.digital, out_elems));
        break;
      case TiledOp::kDense:
        compute =
            steps * DigitalDenseComputeCycles(cfg_.digital, g.c_t, g.k_t) +
            out_tiles * DigitalPostCycles(cfg_.digital, out_elems);
        break;
      case TiledOp::kAdd:
        compute = steps * 2 * DigitalPostCycles(cfg_.digital, out_elems);
        break;
      case TiledOp::kMatmul:
        // One dense pass per row of the M tile (dory/schedule.cpp).
        compute = steps * g.oy_t *
                      DigitalDenseComputeCycles(cfg_.digital, g.c_t, g.k_t) +
                  out_tiles * DigitalPostCycles(cfg_.digital, out_elems);
        break;
    }

    if (g.op != TiledOp::kAdd) {
      // Weight residency rule (dory/schedule.cpp): a layer whose weights
      // fit the accelerator weight memory fetches each (k, c) weight tile
      // once; otherwise the fetch repeats per output spatial tile.
      const bool resident =
          LayerWeightElems(g) <= cfg_.digital.weight_mem_bytes;
      const i64 fetches = n_k * n_c * (resident ? 1 : spatial);
      weight_dma = fetches * DmaCost1d(cfg_.dma, TileWeightElems(g));
    }

    i64 in_dma = 0;
    switch (g.op) {
      case TiledOp::kConv2d:
      case TiledOp::kDwConv2d:
        in_dma = ActTileDmaCost(cfg_.dma, g.c, g.iy, g.ix, g.c_t, g.iy_t,
                                g.ix_t);
        break;
      case TiledOp::kDense:
        in_dma = DmaCost1d(cfg_.dma, g.c_t);
        break;
      case TiledOp::kAdd:
        in_dma = 2 * ActTileDmaCost(cfg_.dma, g.c, g.iy, g.ix, g.c_t,
                                    g.oy_t, g.ox_t);
        break;
      case TiledOp::kMatmul:
        in_dma = ActTileDmaCost(cfg_.dma, 1, g.oy, g.c, 1, g.oy_t, g.c_t);
        break;
    }
    i64 out_dma = 0;
    switch (g.op) {
      case TiledOp::kDense:
        out_dma = DmaCost1d(cfg_.dma, g.k_t);
        break;
      case TiledOp::kMatmul:
        out_dma = ActTileDmaCost(cfg_.dma, 1, g.oy, g.k, 1, g.oy_t, g.k_t);
        break;
      default:
        out_dma = ActTileDmaCost(cfg_.dma, g.k, g.oy, g.ox, g.k_t, g.oy_t,
                                 g.ox_t);
        break;
    }
    act_dma = steps * in_dma + out_tiles * out_dma;

    setup = steps * cfg_.digital.tile_setup_cycles;
    if (g.op == TiledOp::kDwConv2d) {
      setup += steps * static_cast<i64>(
                           cfg_.digital.dw_marshal_cycles_per_elem *
                           static_cast<double>(g.c_t * g.iy_t * g.ix_t));
    }
  }

  const i64 exposed =
      g.double_buffer
          ? std::max<i64>(0, act_dma - (compute + weight_dma)) +
                2 * cfg_.dma.setup_cycles
          : act_dma;
  return compute + weight_dma + exposed + setup + cfg_.runtime_call_overhead;
}

i64 CostModel::L2TransferCycles(i64 bytes) const {
  if (bytes <= 0) return 0;
  return DmaCost1d(cfg_.dma, bytes);
}

}  // namespace htvm::hw
