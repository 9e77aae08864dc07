// Load-time validation of a HAB's meaning (see ValidateArtifact in hab.hpp).
//
// Accelerator kernels are checked by re-derivation: the loader rebuilds
// each DORY schedule from the kernel's own composite body and the
// artifact's hw config, exactly as the compiler did, and requires the
// stored schedule and perf to equal the rebuilt ones. What the rebuild
// cannot see — how kernels, composites and L2 buffers line up — is checked
// by hand. CPU-kernel perf, the pass timeline and the dispatch log are
// trusted: they come from the compiler's cost models, which `vm` does not
// link, and nothing executes them.
#include "dory/schedule.hpp"
#include "support/string_utils.hpp"
#include "vm/hab.hpp"

namespace htvm::vm {
namespace {

Status Invalid(const std::string& what) {
  return Status::InvalidArgument("hab: " + what);
}

// The schedule rebuild divides by some hw-config numbers and multiplies
// with all of them, so a forged config must stop before it: every number
// lies in [0, 2^24] (16 Mi, far above any DIANA-class size or cycle
// count) and every divisor is at least 1.
constexpr i64 kMaxConfigValue = i64{1} << 24;

struct ConfigBounds {
  bool ok = true;
  void I64(i64 v) { ok = ok && v >= 0 && v <= kMaxConfigValue; }
  void F64(double v) {  // NaN fails both comparisons
    ok = ok && v >= 0 && v <= static_cast<double>(kMaxConfigValue);
  }
};

Status CheckHwConfig(const hw::DianaConfig& cfg) {
  ConfigBounds bounds;
  hw::VisitFields(bounds, cfg);
  for (i64 divisor : {cfg.dma.bytes_per_cycle, cfg.digital.pe_rows,
                      cfg.digital.pe_cols, cfg.digital.dw_mac_num,
                      cfg.digital.post_simd_lanes, cfg.analog.array_rows,
                      cfg.analog.array_cols}) {
    bounds.ok = bounds.ok && divisor >= 1;
  }
  if (!bounds.ok) return Invalid("hw config holds an out-of-range number");
  return Status::Ok();
}

// Makes BuildScheduleWithSolution safe to run on `sol`: every tile size in
// [1, dim], the grid equal to the one the sizes imply, and as many tiles as
// stored steps (which the file size bounds). A zero tile size would
// otherwise loop forever and a forged grid would allocate without bound.
Status CheckSolutionGeometry(const dory::AccelLayerSpec& spec,
                             const dory::TileSolution& sol, size_t steps) {
  const auto in_range = [](i64 tile, i64 dim) {
    return tile >= 1 && tile <= dim;
  };
  if (!in_range(sol.c_t, spec.c) || !in_range(sol.k_t, spec.k) ||
      !in_range(sol.oy_t, spec.oy) || !in_range(sol.ox_t, spec.ox)) {
    return Invalid("tile size outside [1, layer dim]");
  }
  dory::TileSolution grid = sol;
  dory::FillTileGrid(spec, grid);
  if (grid.n_c != sol.n_c || grid.n_k != sol.n_k || grid.n_y != sol.n_y ||
      grid.n_x != sol.n_x) {
    return Invalid("tile grid does not match the tile sizes");
  }
  // Each factor is at least 1, so the running product stays <= steps
  // before every multiply and cannot overflow.
  i64 tiles = 1;
  for (i64 n : {sol.n_c, sol.n_k, sol.n_y, sol.n_x}) {
    tiles *= n;
    if (tiles > static_cast<i64>(steps)) break;
  }
  if (tiles != static_cast<i64>(steps)) {
    return Invalid("tile count does not match the stored steps");
  }
  return Status::Ok();
}

Status CheckSchedule(const compiler::CompiledKernel& kernel, const Node& node,
                     const hw::DianaConfig& cfg) {
  const dory::AccelSchedule& stored = *kernel.schedule;
  auto spec = dory::AnalyzeCompositeBody(*node.body);
  if (!spec.ok()) return Invalid(spec.status().message());
  HTVM_RETURN_IF_ERROR(
      CheckSolutionGeometry(*spec, stored.solution, stored.steps.size()));
  auto rebuilt = dory::BuildScheduleWithSolution(
      *spec, cfg, stored.target, stored.options, stored.solution);
  if (!rebuilt.ok()) return Invalid(rebuilt.status().message());
  if (!(*rebuilt == stored)) {
    return Invalid("schedule does not rebuild from its composite body");
  }
  if (!(kernel.perf == dory::SchedulePerf(stored, kernel.name))) {
    return Invalid("perf does not match its schedule");
  }
  return Status::Ok();
}

// Kernels map 1:1, in node order, onto composites whose inputs and output
// carry their bodies' types.
Status CheckKernels(const compiler::Artifact& a) {
  const Graph& g = a.kernel_graph;
  size_t next = 0;
  for (const Node& n : g.nodes()) {
    if (n.kind != NodeKind::kComposite) continue;
    if (next == a.kernels.size() || a.kernels[next].node != n.id) {
      return Invalid(StrFormat("composite %%%d has no kernel in node order",
                               n.id));
    }
    const compiler::CompiledKernel& kernel = a.kernels[next++];
    const Graph& body = *n.body;
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      if (!(g.node(n.inputs[i]).type == body.node(body.inputs()[i]).type)) {
        return Invalid(StrFormat(
            "composite %%%d input %zu type differs from its body's", n.id, i));
      }
    }
    if (!(body.node(body.outputs()[0]).type == n.type)) {
      return Invalid(StrFormat(
          "composite %%%d type differs from its body's output", n.id));
    }
    if (kernel.schedule.has_value()) {
      const Status status = CheckSchedule(kernel, n, a.hw_config);
      if (!status.ok()) {
        return Status::InvalidArgument(StrFormat(
            "%s (kernel %s)", status.message().c_str(), kernel.name.c_str()));
      }
    }
  }
  if (next != a.kernels.size()) {
    return Invalid("kernel names no composite");
  }
  return Status::Ok();
}

// Every graph input and composite has exactly one L2 buffer, inside the
// arena.
Status CheckMemoryPlan(const compiler::Artifact& a) {
  const Graph& g = a.kernel_graph;
  const compiler::MemoryPlan& plan = a.memory_plan;
  std::vector<int> buffers_of(static_cast<size_t>(g.NumNodes()), 0);
  for (const compiler::BufferAssignment& buf : plan.buffers) {
    if (buf.value < 0 || buf.value >= g.NumNodes() || buf.offset < 0 ||
        buf.size < 0 || buf.size > plan.arena_bytes ||
        buf.offset > plan.arena_bytes - buf.size) {
      return Invalid("memory-plan buffer outside the arena");
    }
    ++buffers_of[static_cast<size_t>(buf.value)];
  }
  for (const Node& n : g.nodes()) {
    const bool is_value =
        n.kind == NodeKind::kInput || n.kind == NodeKind::kComposite;
    if (buffers_of[static_cast<size_t>(n.id)] != (is_value ? 1 : 0)) {
      return Invalid(StrFormat(
          "node %%%d does not have exactly one memory-plan buffer", n.id));
    }
  }
  return Status::Ok();
}

}  // namespace

Status ValidateArtifact(const compiler::Artifact& artifact) {
  HTVM_RETURN_IF_ERROR(CheckHwConfig(artifact.hw_config));
  HTVM_RETURN_IF_ERROR(CheckKernels(artifact));
  return CheckMemoryPlan(artifact);
}

}  // namespace htvm::vm
