// DORY tiling solver (Sec. III-B, Eq. 1-5).
//
// Finds tile sizes maximizing
//
//     alpha * (L1_w + L1_out + L1_in)  +  sum_i beta_i * H_i        (Eq. 1)
// s.t. L1_w + L1_in + L1_out < L1_A                                 (Eq. 2)
//
// with the DIANA heuristics
//
//     H_pe_digital_C  = (C_t  - 1) mod 16                           (Eq. 3)
//     H_pe_digital_ix = (ix_t - 1) mod 16                           (Eq. 4)
//     H_DMA           = iy_t                                        (Eq. 5)
//
// The paper solves this as a constraint program; at these problem sizes an
// exhaustive search over structured tile candidates finds the same optimum
// deterministically. Heuristic terms can be disabled individually — that is
// precisely the Fig. 4 experiment (round/square/diamond markers).
//
// Tiling structure per target:
//   digital conv/dense: K, C and output spatial dims all tileable; tiling C
//     accumulates int32 partial sums in L1 (psum buffer, not double
//     buffered);
//   digital dwconv:     channels and spatial dims tileable (no reduction
//     across channels, so no psums);
//   digital add:        spatial/channel tiling, two input buffers;
//   analog conv/dense:  the macro spatially unrolls the full C*kh*kw patch,
//     so C is never tiled; K splits over column tiles inside the macro cost
//     model; only spatial dims are tiled for L1.
#pragma once

#include <functional>

#include "dory/layer_spec.hpp"
#include "hw/config.hpp"

namespace htvm::dory {

enum class AccelTarget : u8 { kDigital, kAnalog };
const char* AccelTargetName(AccelTarget t);

struct TilerOptions {
  // Eq. 1 weights. The balance matters (Sec. III-B: "hyperparameters alpha
  // and beta control the balance"): the PE-alignment terms must dominate —
  // a misaligned channel/width tile wastes array lanes outright — while the
  // DMA term only breaks ties toward taller input tiles (fewer, longer
  // contiguous transfers and fewer tile iterations).
  double alpha = 1.0;      // memory-utilization weight
  double beta_pe = 3.0;    // Eq. 3 + Eq. 4 weight
  double beta_dma = 1.0;   // Eq. 5 weight (contiguity + tall tiles)
  bool enable_pe_heuristics = true;
  bool enable_dma_heuristic = true;
  bool double_buffer = true;  // overlap tile DMA with compute
  i64 l1_budget_bytes = -1;   // -1 = full configured L1

  bool operator==(const TilerOptions&) const = default;
};

// The one field list of TilerOptions, in its canonical order: HAB kernel
// schedules and the artifact-cache options fingerprint both walk it. `io`
// takes F64, Bool and I64 calls.
template <typename Io, RecordOf<TilerOptions> T>
void VisitFields(Io& io, T& t) {
  io.F64(t.alpha);
  io.F64(t.beta_pe);
  io.F64(t.beta_dma);
  io.Bool(t.enable_pe_heuristics);
  io.Bool(t.enable_dma_heuristic);
  io.Bool(t.double_buffer);
  io.I64(t.l1_budget_bytes);
}

struct TileSolution {
  // Tile sizes (<= layer dims). For conv kinds iy_t/ix_t derive from the
  // output tile via iy_t = (oy_t-1)*sy + kh.
  i64 c_t = 1, k_t = 1, oy_t = 1, ox_t = 1, iy_t = 1, ix_t = 1;
  // Tile grid.
  i64 n_c = 1, n_k = 1, n_y = 1, n_x = 1;
  bool needs_tiling = false;  // false: whole layer fits (Fig. 4 grey area)
  bool psum = false;          // C tiled => int32 partial sums in L1
  double objective = 0.0;
  i64 l1_bytes = 0;           // bytes of one live buffer set (Eq. 2 LHS)

  bool operator==(const TileSolution&) const = default;
  i64 TileCount() const { return n_c * n_k * n_y * n_x; }
};

// Sets s.n_* to ceil(dim / tile) (dw/add count channels once, on c).
void FillTileGrid(const AccelLayerSpec& spec, TileSolution& s);

// The DORY tiler: the untiled solution when the whole layer fits one L1
// buffer set and the accelerator weight memory (Fig. 4 grey area; never
// beaten by a tiled schedule), else the best Eq. 1 objective over
// ForEachTileCandidate (ties within 1e-9 go to the larger tile volume;
// `objective` is set), else a Status::ResourceExhausted naming the layer
// kind, its geometry, the L1 budget and the weight memory no shape fit.
Result<TileSolution> SolveTiling(const AccelLayerSpec& spec,
                                 const hw::DianaConfig& cfg,
                                 AccelTarget target,
                                 const TilerOptions& options);

// Dispatch's feasibility question: Ok exactly when SolveTiling succeeds,
// else SolveTiling's ResourceExhausted status, message included. It stops
// at the untiled fast path or at the walk's first feasible shape instead of
// scoring every shape.
Status CheckTilingFits(const AccelLayerSpec& spec, const hw::DianaConfig& cfg,
                       AccelTarget target, const TilerOptions& options);

// --- the candidate walk (docs/schedule_search.md) ------------------------
//
// Every tile shape a layer may deploy comes from one streamed walk of the
// feasible shapes; nothing holds the whole candidate set (a 64-channel
// 64x64 conv has ~16M of them). The walk has three consumers: SolveTiling
// folds it into the Eq. 1 argmax, the graph-beam search
// (dory/schedule_search.hpp) into a cost-model shortlist, and
// CheckTilingFits stops it at the first shape.

// Visits the feasible structured tile shapes (Eq. 2 L1 bound +
// accelerator weight-memory bound) in the solver's deterministic
// (c, k, oy, ox) nested order until `visit` returns false. Each shape has
// its geometry, psum flag, L1 bytes and tile grid filled in; `objective`
// is 0 (scoring is the caller's job). Visits nothing when no shape fits.
void ForEachTileCandidate(
    const AccelLayerSpec& spec, const hw::DianaConfig& cfg, AccelTarget target,
    const TilerOptions& options,
    const std::function<bool(const TileSolution&)>& visit);

// The Eq. 1 objective of one feasible candidate (alpha memory-utilization
// term + Eq. 3/4 PE-alignment + Eq. 5 DMA heuristics, as configured).
double HeuristicObjective(const AccelLayerSpec& spec,
                          const hw::DianaConfig& cfg, AccelTarget target,
                          const TilerOptions& options,
                          const TileSolution& cand);

// Effective Eq. 2 budget: the explicit override, else the SoC's L1 size.
i64 EffectiveL1Budget(const hw::DianaConfig& cfg, const TilerOptions& options);

// L1 bytes of one buffer set for the given tile sizes (the Eq. 2 LHS the
// solver uses). Exposed for tests.
i64 TileL1Bytes(const AccelLayerSpec& spec, const TilerOptions& options,
                i64 c_t, i64 k_t, i64 oy_t, i64 ox_t, bool psum);

}  // namespace htvm::dory
