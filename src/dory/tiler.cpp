#include "dory/tiler.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "support/math_utils.hpp"
#include "support/string_utils.hpp"

namespace htvm::dory {

const char* AccelTargetName(AccelTarget t) {
  return t == AccelTarget::kDigital ? "digital" : "analog";
}

namespace {

// Input extent an output tile consumes, clamped to the real input: a tile
// covering the full output width reads at most the full input width — the
// halo beyond it is padding, synthesized locally rather than transferred.
i64 InTileDim(i64 out_tile, i64 stride, i64 kernel, i64 in_dim) {
  return std::min((out_tile - 1) * stride + kernel, in_dim);
}

// Weight bytes that must reside in the accelerator weight memory for one
// (k_t, c_t) weight tile.
i64 WeightTileBytes(const AccelLayerSpec& spec, AccelTarget target, i64 c_t,
                    i64 k_t) {
  switch (spec.kind) {
    case LayerKind::kConv2d: {
      const i64 elems = k_t * c_t * spec.kh * spec.kw;
      // Analog weights are 2-bit cells; digital are int8.
      return target == AccelTarget::kAnalog ? CeilDiv(elems * 2, 8) : elems;
    }
    case LayerKind::kDwConv2d:
      return c_t * spec.kh * spec.kw;
    case LayerKind::kDense: {
      const i64 elems = k_t * c_t;
      return target == AccelTarget::kAnalog ? CeilDiv(elems * 2, 8) : elems;
    }
    case LayerKind::kAdd:
      return 0;
    case LayerKind::kMatmul: {
      // The [N, K] weight tile is shared by every row of the M axis.
      const i64 elems = k_t * c_t;
      return target == AccelTarget::kAnalog ? CeilDiv(elems * 2, 8) : elems;
    }
  }
  return 0;
}

i64 AccelWeightMemBytes(const hw::DianaConfig& cfg, AccelTarget target) {
  return target == AccelTarget::kDigital ? cfg.digital.weight_mem_bytes
                                         : cfg.analog.weight_mem_bytes;
}

// The Fig. 4 grey-area fast path: the whole layer fits one L1 buffer set
// and the accelerator weight memory, so no tiling is needed. nullopt when
// it does not fit.
std::optional<TileSolution> UntiledSolution(const AccelLayerSpec& spec,
                                            const hw::DianaConfig& cfg,
                                            AccelTarget target,
                                            const TilerOptions& options) {
  const i64 budget = EffectiveL1Budget(cfg, options);
  TilerOptions single = options;
  single.double_buffer = false;  // a single pass needs one buffer set
  const i64 whole = TileL1Bytes(spec, single, spec.c, spec.k, spec.oy, spec.ox,
                                /*psum=*/false);
  const i64 wbytes = WeightTileBytes(spec, target, spec.c, spec.k);
  if (whole >= budget || wbytes > AccelWeightMemBytes(cfg, target)) {
    return std::nullopt;
  }
  TileSolution s;
  s.c_t = spec.c;
  s.k_t = spec.k;
  s.oy_t = spec.oy;
  s.ox_t = spec.ox;
  s.iy_t = spec.iy;
  s.ix_t = spec.ix;
  s.needs_tiling = false;
  s.l1_bytes = whole;
  s.objective = 0.0;
  return s;
}

// The typed no-fit error: no tile shape satisfies the L1 budget and the
// accelerator weight memory.
Status InfeasibleTilingStatus(const AccelLayerSpec& spec,
                              const hw::DianaConfig& cfg, AccelTarget target,
                              const TilerOptions& options) {
  return Status::ResourceExhausted(StrFormat(
      "no feasible tiling for %s layer (C=%lld K=%lld in=%lldx%lld "
      "kernel=%lldx%lld) on the %s target within %lld B L1 "
      "(weight memory %lld B)",
      LayerKindName(spec.kind), static_cast<long long>(spec.c),
      static_cast<long long>(spec.k), static_cast<long long>(spec.iy),
      static_cast<long long>(spec.ix), static_cast<long long>(spec.kh),
      static_cast<long long>(spec.kw), AccelTargetName(target),
      static_cast<long long>(EffectiveL1Budget(cfg, options)),
      static_cast<long long>(AccelWeightMemBytes(cfg, target))));
}

}  // namespace

void FillTileGrid(const AccelLayerSpec& spec, TileSolution& s) {
  s.n_c = CeilDiv(spec.c, s.c_t);
  s.n_k = (spec.kind == LayerKind::kDwConv2d || spec.kind == LayerKind::kAdd)
              ? 1
              : CeilDiv(spec.k, s.k_t);
  s.n_y = CeilDiv(spec.oy, s.oy_t);
  s.n_x = CeilDiv(spec.ox, s.ox_t);
}

i64 EffectiveL1Budget(const hw::DianaConfig& cfg, const TilerOptions& options) {
  return options.l1_budget_bytes > 0 ? options.l1_budget_bytes : cfg.l1_bytes;
}

i64 TileL1Bytes(const AccelLayerSpec& spec, const TilerOptions& options,
                i64 c_t, i64 k_t, i64 oy_t, i64 ox_t, bool psum) {
  const i64 db = options.double_buffer ? 2 : 1;
  switch (spec.kind) {
    case LayerKind::kConv2d: {
      const i64 iy_t = InTileDim(oy_t, spec.sy, spec.kh, spec.iy);
      const i64 ix_t = InTileDim(ox_t, spec.sx, spec.kw, spec.ix);
      const i64 in = c_t * iy_t * ix_t;
      const i64 out = k_t * oy_t * ox_t * (psum ? 4 : 1);
      // Partial-sum buffers accumulate in place and cannot double buffer.
      return in * db + out * (psum ? 1 : db);
    }
    case LayerKind::kDwConv2d: {
      const i64 iy_t = InTileDim(oy_t, spec.sy, spec.kh, spec.iy);
      const i64 ix_t = InTileDim(ox_t, spec.sx, spec.kw, spec.ix);
      return c_t * iy_t * ix_t * db + c_t * oy_t * ox_t * db;
    }
    case LayerKind::kDense:
      return c_t * db + k_t * (psum ? 4 : db);
    case LayerKind::kAdd:
      return 2 * c_t * oy_t * ox_t * db + c_t * oy_t * ox_t * db;
    case LayerKind::kMatmul: {
      // oy_t rows of K-slice input, oy_t x k_t output (int32 while partial
      // sums are live, int8 once the requant ran).
      const i64 in = c_t * oy_t;
      const i64 out = k_t * oy_t * (psum ? 4 : 1);
      return in * db + out * (psum ? 1 : db);
    }
  }
  return 0;
}

void ForEachTileCandidate(
    const AccelLayerSpec& spec, const hw::DianaConfig& cfg, AccelTarget target,
    const TilerOptions& options,
    const std::function<bool(const TileSolution&)>& visit) {
  const i64 budget = EffectiveL1Budget(cfg, options);
  const i64 weight_mem = AccelWeightMemBytes(cfg, target);

  // --- candidate sets per dimension ---------------------------------------
  // TileCandidates yields every value 1..n for a dim of at most 64, so the
  // small layers of the paper's networks search their full space. Larger
  // dims keep their divisors plus multiples of a step: the PE grid for
  // channel dims, 4 for spatial dims (fine enough for the DMA heuristic to
  // trade row count against row length).
  std::vector<i64> k_cands, c_cands, oy_cands, ox_cands;
  const bool analog = target == AccelTarget::kAnalog;
  // The PE grid drives both the candidate step and the alignment rewards;
  // porting HTVM to another digital array only means changing the config.
  const i64 pe = cfg.digital.pe_rows;
  switch (spec.kind) {
    case LayerKind::kConv2d:
      k_cands = analog ? std::vector<i64>{spec.k} : TileCandidates(spec.k, pe);
      c_cands = analog ? std::vector<i64>{spec.c} : TileCandidates(spec.c, pe);
      oy_cands = TileCandidates(spec.oy, 4);
      ox_cands = TileCandidates(spec.ox, 4);
      break;
    case LayerKind::kDwConv2d:
      k_cands = {0};  // mirrors c_t
      c_cands = TileCandidates(spec.c, pe);
      oy_cands = TileCandidates(spec.oy, 4);
      ox_cands = TileCandidates(spec.ox, 4);
      break;
    case LayerKind::kDense:
      k_cands = analog ? std::vector<i64>{spec.k} : TileCandidates(spec.k, pe);
      c_cands = analog ? std::vector<i64>{spec.c} : TileCandidates(spec.c, pe);
      oy_cands = {1};
      ox_cands = {1};
      break;
    case LayerKind::kAdd:
      k_cands = {0};
      c_cands = TileCandidates(spec.c, pe);
      oy_cands = TileCandidates(spec.oy, 4);
      ox_cands = TileCandidates(spec.ox, 4);
      break;
    case LayerKind::kMatmul:
      // (M, N, K) tiles: N/K tile like dense, the M row axis like a
      // spatial dim so search can trade rows for channel depth within the
      // L1 budget.
      k_cands = analog ? std::vector<i64>{spec.k} : TileCandidates(spec.k, pe);
      c_cands = analog ? std::vector<i64>{spec.c} : TileCandidates(spec.c, pe);
      oy_cands = TileCandidates(spec.oy, 4);
      ox_cands = {1};
      break;
  }

  for (const i64 c_t : c_cands) {
    for (const i64 k_raw : k_cands) {
      const i64 k_t = (spec.kind == LayerKind::kDwConv2d ||
                       spec.kind == LayerKind::kAdd)
                          ? c_t
                          : k_raw;
      const bool psum = (spec.kind == LayerKind::kConv2d ||
                         spec.kind == LayerKind::kDense ||
                         spec.kind == LayerKind::kMatmul) &&
                        c_t < spec.c;
      if (WeightTileBytes(spec, target, c_t, k_t) > weight_mem) continue;
      // L1 bytes grow with oy_t and ox_t, and both lists ascend: the first
      // shape over budget ends its row, and a row whose first shape is
      // over budget ends the oy_t loop.
      for (const i64 oy_t : oy_cands) {
        bool row_fits = false;
        for (const i64 ox_t : ox_cands) {
          const i64 bytes =
              TileL1Bytes(spec, options, c_t, k_t, oy_t, ox_t, psum);
          if (bytes >= budget) break;
          row_fits = true;

          const i64 iy_t = InTileDim(oy_t, spec.sy, spec.kh, spec.iy);
          const i64 ix_t = InTileDim(ox_t, spec.sx, spec.kw, spec.ix);

          TileSolution s;
          s.c_t = c_t;
          s.k_t = k_t;
          s.oy_t = oy_t;
          s.ox_t = ox_t;
          s.iy_t = std::min(iy_t, spec.iy);
          s.ix_t = std::min(ix_t, spec.ix);
          s.psum = psum;
          s.needs_tiling = true;
          s.l1_bytes = bytes;
          s.objective = 0.0;
          FillTileGrid(spec, s);
          if (!visit(s)) return;
        }
        if (!row_fits) break;
      }
    }
  }
}

double HeuristicObjective(const AccelLayerSpec& spec,
                          const hw::DianaConfig& cfg, AccelTarget target,
                          const TilerOptions& options,
                          const TileSolution& cand) {
  const i64 budget = EffectiveL1Budget(cfg, options);
  const bool analog = target == AccelTarget::kAnalog;
  const i64 pe = cfg.digital.pe_rows;

  // --- Eq. 1 objective ----------------------------------------------------
  double obj = options.alpha * static_cast<double>(cand.l1_bytes) /
               static_cast<double>(budget);
  if (options.enable_pe_heuristics && !analog) {
    // Eq. 3 + Eq. 4, extended with the same alignment reward on the
    // K tile — the PE array unrolls output channels over its 16
    // rows, so a K tile off the grid wastes lanes identically.
    // Normalized to [0, 1].
    const double norm = static_cast<double>(pe - 1);
    double h_pe;
    if (spec.kind == LayerKind::kDense || spec.kind == LayerKind::kMatmul) {
      h_pe = static_cast<double>((cand.c_t - 1) % pe + (cand.k_t - 1) % pe) /
             (2.0 * norm);
    } else {
      h_pe = static_cast<double>((cand.c_t - 1) % pe + (cand.ix_t - 1) % pe +
                                 (cand.k_t - 1) % pe) /
             (3.0 * norm);
    }
    obj += options.beta_pe * h_pe;
  }
  if (options.enable_dma_heuristic && spec.kind != LayerKind::kDense) {
    // Eq. 5 plus the contiguity goal it serves: "to minimize
    // non-contiguous input data transfers ... we maximize the iy
    // dimension" — a tile spanning the full input width transfers
    // as whole C-y-x rows (one descriptor per channel) instead of
    // per-(channel, row) segments.
    const double contig = cand.ix_t >= spec.ix ? 1.0 : 0.0;
    const double h_dma =
        0.75 * contig +
        0.25 * static_cast<double>(cand.iy_t) / static_cast<double>(spec.iy);
    obj += options.beta_dma * h_dma;
  }
  return obj;
}

Result<TileSolution> SolveTiling(const AccelLayerSpec& spec,
                                 const hw::DianaConfig& cfg,
                                 AccelTarget target,
                                 const TilerOptions& options) {
  if (auto untiled = UntiledSolution(spec, cfg, target, options)) {
    return *untiled;
  }
  bool feasible = false;
  TileSolution best;
  double best_obj = -1.0;
  i64 best_volume = -1;  // tie-break: prefer bigger (fewer) tiles
  ForEachTileCandidate(
      spec, cfg, target, options, [&](const TileSolution& cand) {
        feasible = true;
        const double obj = HeuristicObjective(spec, cfg, target, options, cand);
        const i64 volume = cand.c_t * cand.k_t * cand.oy_t * cand.ox_t;
        const bool better = obj > best_obj + 1e-9 ||
                            (obj > best_obj - 1e-9 && volume > best_volume);
        if (better) {
          best_obj = std::max(best_obj, obj);
          best_volume = volume;
          best = cand;
          best.objective = obj;
        }
        return true;
      });
  if (!feasible) return InfeasibleTilingStatus(spec, cfg, target, options);
  return best;
}

Status CheckTilingFits(const AccelLayerSpec& spec, const hw::DianaConfig& cfg,
                       AccelTarget target, const TilerOptions& options) {
  if (UntiledSolution(spec, cfg, target, options)) return Status::Ok();
  bool feasible = false;
  ForEachTileCandidate(spec, cfg, target, options,
                       [&feasible](const TileSolution&) {
                         feasible = true;
                         return false;  // one shape answers the question
                       });
  if (!feasible) return InfeasibleTilingStatus(spec, cfg, target, options);
  return Status::Ok();
}

}  // namespace htvm::dory
