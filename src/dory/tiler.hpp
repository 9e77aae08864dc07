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

#include <optional>
#include <vector>

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

  i64 TileCount() const { return n_c * n_k * n_y * n_x; }
};

Result<TileSolution> SolveTiling(const AccelLayerSpec& spec,
                                 const hw::DianaConfig& cfg,
                                 AccelTarget target,
                                 const TilerOptions& options);

// --- schedule-search framework layer (docs/schedule_search.md) -----------
//
// SolveTiling above is now a thin composition of the three pieces below:
// the untiled fast path, the candidate enumerator, and the Eq. 1-5
// heuristic picker. Search strategies (dory/schedule_search.hpp) reuse the
// same enumerator and may score the stream differently.

// The Fig. 4 grey-area fast path: the whole layer fits one L1 buffer set
// and the accelerator weight memory, so no tiling is needed. nullopt when
// it does not fit. Every search strategy takes this unconditionally — a
// single untiled pass is never beaten by a tiled schedule.
std::optional<TileSolution> UntiledSolution(const AccelLayerSpec& spec,
                                            const hw::DianaConfig& cfg,
                                            AccelTarget target,
                                            const TilerOptions& options);

// Materializes every feasible structured tile shape (Eq. 2 L1 bound +
// accelerator weight-memory bound) in the solver's deterministic
// (c, k, oy, x) nested order. Each entry has its geometry, psum flag, L1
// bytes and tile grid filled in; `objective` is left 0 (scoring is the
// strategy's job). Empty when no shape fits (see InfeasibleTilingStatus).
std::vector<TileSolution> EnumerateTileCandidates(const AccelLayerSpec& spec,
                                                  const hw::DianaConfig& cfg,
                                                  AccelTarget target,
                                                  const TilerOptions& options);

// The Eq. 1 objective of one feasible candidate (alpha memory-utilization
// term + Eq. 3/4 PE-alignment + Eq. 5 DMA heuristics, as configured).
double HeuristicObjective(const AccelLayerSpec& spec,
                          const hw::DianaConfig& cfg, AccelTarget target,
                          const TilerOptions& options,
                          const TileSolution& cand);

// The DORY heuristic picker: scans `candidates` in order and keeps the
// best Eq. 1 objective (ties broken toward larger tile volume). This is
// byte-for-byte the legacy SolveTiling selection — the `heuristic` search
// strategy and the golden-pinned default path. `candidates` must be
// non-empty; the returned solution has `objective` set.
TileSolution PickHeuristicSolution(const AccelLayerSpec& spec,
                                   const hw::DianaConfig& cfg,
                                   AccelTarget target,
                                   const TilerOptions& options,
                                   const std::vector<TileSolution>& candidates);

// The typed no-fit error every solver/search path returns: a
// Status::ResourceExhausted naming the layer kind, its geometry, the L1
// budget and the accelerator weight memory that no tile shape satisfied.
Status InfeasibleTilingStatus(const AccelLayerSpec& spec,
                              const hw::DianaConfig& cfg, AccelTarget target,
                              const TilerOptions& options);

// Effective Eq. 2 budget: the explicit override, else the SoC's L1 size.
i64 EffectiveL1Budget(const hw::DianaConfig& cfg, const TilerOptions& options);

// L1 bytes of one buffer set for the given tile sizes (the Eq. 2 LHS the
// solver uses). Exposed for tests.
i64 TileL1Bytes(const AccelLayerSpec& spec, AccelTarget target,
                const TilerOptions& options, i64 c_t, i64 k_t, i64 oy_t,
                i64 ox_t, bool psum);

}  // namespace htvm::dory
