#include "dory/schedule.hpp"

#include <algorithm>

#include "hw/analog_accel.hpp"
#include "hw/digital_accel.hpp"
#include "hw/dma.hpp"
#include "support/math_utils.hpp"
#include "support/string_utils.hpp"

namespace htvm::dory {
namespace {

// Input rows/cols an output tile of `o_t` at origin `o0` actually consumes
// (clipped to the padded input's valid region).
i64 InputTileExtent(i64 o0, i64 o_t, i64 stride, i64 kernel, i64 pad_begin,
                    i64 in_dim) {
  const i64 first = o0 * stride - pad_begin;
  const i64 last = (o0 + o_t - 1) * stride - pad_begin + kernel - 1;
  const i64 lo = std::max<i64>(first, 0);
  const i64 hi = std::min<i64>(last, in_dim - 1);
  return std::max<i64>(0, hi - lo + 1);
}

i64 StepComputeCycles(const AccelLayerSpec& spec, const hw::DianaConfig& cfg,
                      AccelTarget target, const TileStep& s) {
  const i64 out_elems = s.k_t * s.oy_t * s.ox_t;
  if (target == AccelTarget::kAnalog) {
    hw::AnalogLayerGeom g;
    g.k = spec.k;  // all columns resident; tiles only cut space
    g.c = spec.c;
    g.kh = spec.kh;
    g.kw = spec.kw;
    g.oy = s.oy_t;
    g.ox = s.ox_t;
    i64 cycles = hw::AnalogComputeCycles(cfg.analog, g);
    if (s.last_c) cycles += hw::AnalogPostCycles(out_elems);
    return cycles;
  }
  hw::ConvTileGeom g;
  g.k = s.k_t;
  g.c = s.c_t;
  g.iy = s.iy_t;
  g.ix = s.ix_t;
  g.oy = s.oy_t;
  g.ox = s.ox_t;
  g.kh = spec.kh;
  g.kw = spec.kw;
  i64 cycles = 0;
  switch (spec.kind) {
    case LayerKind::kConv2d:
      cycles = hw::DigitalConvComputeCycles(cfg.digital, g);
      break;
    case LayerKind::kDwConv2d:
      cycles = hw::DigitalDwConvComputeCycles(cfg.digital, g);
      break;
    case LayerKind::kDense:
      cycles = hw::DigitalDenseComputeCycles(cfg.digital, s.c_t, s.k_t);
      break;
    case LayerKind::kAdd:
      // Elementwise add runs on the output SIMD stage: read 2, add, requant.
      cycles = 2 * hw::DigitalPostCycles(cfg.digital, out_elems);
      break;
    case LayerKind::kMatmul:
      // One dense pass per output row of the M tile; the weight tile stays
      // resident across the rows.
      cycles =
          s.oy_t * hw::DigitalDenseComputeCycles(cfg.digital, s.c_t, s.k_t);
      break;
  }
  if (s.last_c && spec.kind != LayerKind::kAdd) {
    cycles += hw::DigitalPostCycles(cfg.digital, out_elems);
  }
  return cycles;
}

i64 StepInDmaCycles(const AccelLayerSpec& spec, const hw::DianaConfig& cfg,
                    const TileStep& s) {
  switch (spec.kind) {
    case LayerKind::kConv2d:
    case LayerKind::kDwConv2d:
      return hw::ActTileDmaCost(cfg.dma, spec.c, spec.iy, spec.ix, s.c_t,
                                s.iy_t, s.ix_t);
    case LayerKind::kDense:
      return hw::DmaCost1d(cfg.dma, s.c_t);
    case LayerKind::kAdd:
      return 2 * hw::ActTileDmaCost(cfg.dma, spec.c, spec.iy, spec.ix, s.c_t,
                                    s.oy_t, s.ox_t);
    case LayerKind::kMatmul:
      // oy_t row segments of c_t contiguous bytes out of the [M, K] input.
      return hw::ActTileDmaCost(cfg.dma, 1, spec.oy, spec.c, 1, s.oy_t,
                                s.c_t);
  }
  return 0;
}

i64 StepOutDmaCycles(const AccelLayerSpec& spec, const hw::DianaConfig& cfg,
                     const TileStep& s) {
  if (!s.last_c) return 0;  // partial sums stay in L1
  switch (spec.kind) {
    case LayerKind::kConv2d:
    case LayerKind::kDwConv2d:
    case LayerKind::kAdd:
      return hw::ActTileDmaCost(cfg.dma, spec.k, spec.oy, spec.ox, s.k_t,
                                s.oy_t, s.ox_t);
    case LayerKind::kDense:
      return hw::DmaCost1d(cfg.dma, s.k_t);
    case LayerKind::kMatmul:
      return hw::ActTileDmaCost(cfg.dma, 1, spec.oy, spec.k, 1, s.oy_t,
                                s.k_t);
  }
  return 0;
}

}  // namespace

Result<AccelSchedule> BuildScheduleWithSolution(const AccelLayerSpec& spec,
                                                const hw::DianaConfig& cfg,
                                                AccelTarget target,
                                                const TilerOptions& options,
                                                const TileSolution& sol) {
  AccelSchedule sched;
  sched.spec = spec;
  sched.solution = sol;
  sched.target = target;
  sched.options = options;
  sched.macs = spec.Macs();

  // A pathological solution (e.g. a hand-built 1x1x1x1 tile over a large
  // layer under a tiny L1 budget) would enumerate an absurd step list;
  // report it as a typed resource error naming the layer instead of
  // aborting — callers degrade the same way as an infeasible tiling.
  const i64 tiles_expected = sol.TileCount();
  if (tiles_expected > 200000) {
    return Status::ResourceExhausted(StrFormat(
        "tile schedule for %s layer (C=%lld K=%lld out=%lldx%lld) needs "
        "%lld steps (limit 200000); the tile shape is too small for the "
        "layer — likely an undersized L1 budget",
        LayerKindName(spec.kind), static_cast<long long>(spec.c),
        static_cast<long long>(spec.k), static_cast<long long>(spec.oy),
        static_cast<long long>(spec.ox),
        static_cast<long long>(tiles_expected)));
  }
  sched.steps.reserve(static_cast<size_t>(tiles_expected));

  // Weight residency: when the whole layer's weights fit the accelerator
  // weight memory, each (k, c) weight tile is fetched once; otherwise it is
  // re-fetched per output spatial tile (the FC overhead effect, Sec. IV-B).
  const i64 weight_mem = target == AccelTarget::kDigital
                             ? cfg.digital.weight_mem_bytes
                             : cfg.analog.weight_mem_bytes;
  const i64 weight_elem_bytes_num =
      (target == AccelTarget::kAnalog) ? 2 : 8;  // bits per element
  const i64 layer_weight_bytes =
      CeilDiv(spec.WeightElems() * weight_elem_bytes_num, 8);
  const bool weights_resident = layer_weight_bytes <= weight_mem;

  const i64 tile_setup = target == AccelTarget::kDigital
                             ? cfg.digital.tile_setup_cycles
                             : cfg.analog.tile_setup_cycles;

  bool analog_weights_loaded = false;
  // Output-stationary loop nest: k, y, x outer; c inner.
  for (i64 k0 = 0; k0 < spec.k;
       k0 += (spec.kind == LayerKind::kDwConv2d ||
              spec.kind == LayerKind::kAdd)
                 ? spec.k
                 : sol.k_t) {
    for (i64 y0 = 0; y0 < spec.oy; y0 += sol.oy_t) {
      for (i64 x0 = 0; x0 < spec.ox; x0 += sol.ox_t) {
        for (i64 c0 = 0; c0 < spec.c; c0 += sol.c_t) {
          TileStep s;
          s.c0 = c0;
          s.k0 = k0;
          s.y0 = y0;
          s.x0 = x0;
          s.c_t = std::min(sol.c_t, spec.c - c0);
          s.k_t = (spec.kind == LayerKind::kDwConv2d ||
                   spec.kind == LayerKind::kAdd)
                      ? s.c_t
                      : std::min(sol.k_t, spec.k - k0);
          s.oy_t = std::min(sol.oy_t, spec.oy - y0);
          s.ox_t = std::min(sol.ox_t, spec.ox - x0);
          s.iy_t = InputTileExtent(y0, s.oy_t, spec.sy, spec.kh, spec.pad_t,
                                   spec.iy);
          s.ix_t = InputTileExtent(x0, s.ox_t, spec.sx, spec.kw, spec.pad_l,
                                   spec.ix);
          if (spec.kind == LayerKind::kDense) {
            s.iy_t = s.ix_t = 1;
          }
          // Depthwise/add channel tiles are independent (no reduction over
          // C), so every step both initializes and finalizes its outputs.
          if (spec.kind == LayerKind::kDwConv2d ||
              spec.kind == LayerKind::kAdd) {
            s.first_c = s.last_c = true;
          } else {
            s.first_c = c0 == 0;
            s.last_c = c0 + sol.c_t >= spec.c;
          }

          if (target == AccelTarget::kAnalog) {
            if (!analog_weights_loaded) {
              hw::AnalogLayerGeom g;
              g.k = spec.k;
              g.c = spec.c;
              g.kh = spec.kh;
              g.kw = spec.kw;
              // Macro calibration + row programming, once per layer; part
              // of the accelerator instruction, so it counts toward peak.
              s.weight_dma_cycles = cfg.analog.layer_setup_cycles +
                                    hw::AnalogWeightLoadCycles(cfg.analog, g);
              analog_weights_loaded = true;
            }
          } else if (spec.kind != LayerKind::kAdd) {
            const bool first_spatial = y0 == 0 && x0 == 0;
            if (!weights_resident || first_spatial) {
              const i64 w_elems =
                  spec.kind == LayerKind::kDwConv2d
                      ? s.c_t * spec.kh * spec.kw
                      : (spec.kind == LayerKind::kDense
                             ? s.k_t * s.c_t
                             : s.k_t * s.c_t * spec.kh * spec.kw);
              // Weights are pre-laid-out contiguously in L2 (DORY step 3).
              s.weight_dma_cycles = hw::DmaCost1d(cfg.dma, w_elems);
            }
          }

          s.compute_cycles = StepComputeCycles(spec, cfg, target, s);
          s.in_dma_cycles = StepInDmaCycles(spec, cfg, s);
          s.out_dma_cycles = StepOutDmaCycles(spec, cfg, s);
          s.setup_cycles = tile_setup;
          if (spec.kind == LayerKind::kDwConv2d &&
              target == AccelTarget::kDigital) {
            // Host-side input repacking for the single-PE-row dw mode.
            s.setup_cycles += static_cast<i64>(
                cfg.digital.dw_marshal_cycles_per_elem *
                static_cast<double>(s.c_t * s.iy_t * s.ix_t));
          }
          sched.steps.push_back(s);
        }
      }
    }
  }

  // --- aggregate ----------------------------------------------------------
  for (const TileStep& s : sched.steps) {
    sched.compute_cycles += s.compute_cycles;
    sched.weight_dma_cycles += s.weight_dma_cycles;
    sched.act_dma_cycles += s.in_dma_cycles + s.out_dma_cycles;
    sched.overhead_cycles += s.setup_cycles;
  }
  sched.overhead_cycles += cfg.runtime_call_overhead;

  if (options.double_buffer) {
    // Streaming double-buffered DMA: activation traffic overlaps the
    // accelerator's busy time (compute + weight load). Only the excess of a
    // DMA-bound layer plus the unhideable descriptor programming at the
    // pipeline boundaries stays exposed. This is what keeps the full-kernel
    // throughput of compute-heavy Conv2D within ~1% of peak (Fig. 5) while
    // low-arithmetic-intensity FC layers lose half their throughput.
    const i64 busy = sched.compute_cycles + sched.weight_dma_cycles;
    sched.exposed_act_cycles = std::max<i64>(0, sched.act_dma_cycles - busy) +
                               2 * cfg.dma.setup_cycles;
  } else {
    sched.exposed_act_cycles = sched.act_dma_cycles;
  }

  sched.peak_cycles = sched.compute_cycles + sched.weight_dma_cycles;
  sched.full_cycles =
      sched.peak_cycles + sched.exposed_act_cycles + sched.overhead_cycles;
  return sched;
}

hw::KernelPerf SchedulePerf(const AccelSchedule& s, const std::string& name) {
  return {.name = name,
          .target = AccelTargetName(s.target),
          .macs = s.macs,
          .peak_cycles = s.peak_cycles,
          .full_cycles = s.full_cycles,
          .compute_cycles = s.compute_cycles,
          .weight_dma_cycles = s.weight_dma_cycles,
          .act_dma_cycles = s.exposed_act_cycles,
          .overhead_cycles = s.overhead_cycles,
          .tiles = static_cast<i64>(s.steps.size())};
}

Result<AccelSchedule> BuildSchedule(const AccelLayerSpec& spec,
                                    const hw::DianaConfig& cfg,
                                    AccelTarget target,
                                    const TilerOptions& options) {
  HTVM_ASSIGN_OR_RETURN(sol, SolveTiling(spec, cfg, target, options));
  return BuildScheduleWithSolution(spec, cfg, target, options, sol);
}

}  // namespace htvm::dory
