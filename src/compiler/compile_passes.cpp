#include "compiler/compile_passes.hpp"

#include <algorithm>

#include "compiler/memory_planner.hpp"
#include "compiler/plan_search.hpp"
#include "dory/depth_first.hpp"
#include "dory/schedule.hpp"
#include "dory/schedule_search.hpp"
#include "hw/cost_model.hpp"
#include "hw/cpu.hpp"
#include "dory/weight_layout.hpp"
#include "ir/passes.hpp"
#include "nn/interpreter.hpp"
#include "support/logging.hpp"
#include "support/string_utils.hpp"
#include "support/thread_pool.hpp"
#include "tvmgen/binary_size.hpp"
#include "tvmgen/cost_model.hpp"
#include "tvmgen/fusion.hpp"

namespace htvm::compiler {
namespace {

// Front-end optimization (Fig. 1 "initial optimizations"): fold explicit
// TFLite-style PAD ops into conv attributes.
Status AbsorbPaddingPass(CompileState& state) {
  const i64 before = state.graph.NumNodes();
  i64 rewrites = 0;
  state.graph = AbsorbPadding(state.graph, &rewrites);
  // No absorbed pads and no DCE shrinkage => MapGraph cloned the graph
  // verbatim; tell the manager so it can skip re-validation and dumps.
  state.pass_changed_graph = rewrites > 0 || state.graph.NumNodes() != before;
  return Status::Ok();
}

Status ConstantFoldPass(CompileState& state) {
  const i64 before = state.graph.NumNodes();
  i64 rewrites = 0;
  state.graph = nn::ConstantFold(state.graph, &rewrites);
  state.pass_changed_graph = rewrites > 0 || state.graph.NumNodes() != before;
  return Status::Ok();
}

// Accelerator-aware dispatch (Sec. III-A): matched chains become composite
// nodes annotated with their target; decisions land in the dispatch log.
// With graph-beam search the fixed-priority partitioning becomes
// the *heuristic plan* of a fusion/dispatch search (plan_search.hpp): the
// searched GraphPlan retargets composites and merges depth-first pairs,
// and is recorded in the artifact so the cache, the serializers, and
// htvm-run replay the same mapping. The default heuristic path does not
// enter the branch at all — its output is byte-identical to the pinned
// goldens.
Status PartitionGraphPass(CompileState& state) {
  if (state.options.plain_tvm) {  // CPU-only baseline
    state.pass_changed_graph = false;
    return Status::Ok();
  }
  const auto rules = MakeDianaDispatchRules(
      state.options.dispatch, state.options.soc, state.options.tiler,
      &state.artifact.dispatch_log);
  state.graph = PartitionGraph(state.graph, rules);
  if (state.options.schedule_search.kind !=
      dory::ScheduleSearchKind::kGraphBeam) {
    return Status::Ok();
  }

  HTVM_ASSIGN_OR_RETURN(units, ExtractPlanUnits(state.graph, state.options));
  HTVM_ASSIGN_OR_RETURN(plan, SearchGraphPlan(units, state.options));
  HTVM_ASSIGN_OR_RETURN(planned, ApplyGraphPlan(state.graph, units, plan));
  state.graph = std::move(planned);
  state.artifact.plan = std::move(plan);
  return Status::Ok();
}

Status InsertAnalogInputClampsPass(CompileState& state) {
  if (state.options.plain_tvm) {
    state.pass_changed_graph = false;
    return Status::Ok();
  }
  state.graph = InsertAnalogInputClamps(state.graph);
  return Status::Ok();
}

// TVM-native lowering of everything the dispatcher left on the CPU.
Status LowerToKernelsPass(CompileState& state) {
  state.graph = tvmgen::LowerToKernels(state.graph);
  return Status::Ok();
}

// Whole-block MHSA kernel (diana.mhsa): the digital array executes the
// four projection matmuls (heuristic DORY schedules), the closed-form cost
// model prices the activation x activation score/context matmuls at
// whole-layer tiles, and the glue (softmax, requants, layout ops) is
// charged at CPU rates. Deliberately schedule-free: execution replays the
// body on the reference interpreter, which is what keeps the fused block
// bit-exact on every SoC; only the performance/size accounting is
// accelerator-aware. Heuristic schedules record no search statistics, so
// the warm-compile `evaluations=0` invariant is untouched by MHSA kernels.
Status CompileMhsaKernel(const Node& n, const CompileOptions& options,
                         CompiledKernel* kernel) {
  const Graph& body = *n.body;
  const hw::DianaConfig& cfg = options.soc.config;
  const hw::CostModel cost(cfg);
  hw::KernelPerf& perf = kernel->perf;
  perf.name = kernel->name;
  perf.target = kernel->target;
  kernel->code_bytes = tvmgen::CpuKernelCodeBytes(n);
  kernel->weight_bytes = 0;
  for (const Node& op : body.nodes()) {
    if (op.kind != NodeKind::kOp) continue;
    perf.macs += hw::ComputeOpWork(body, op).macs;
    if (!op.Is(OpId::kMatmul)) {
      const i64 cycles = hw::CpuOpCycles(cfg.cpu, body, op);
      perf.compute_cycles += cycles;
      perf.full_cycles += cycles;
      continue;
    }
    const TensorType& at = body.node(op.inputs[0]).type;
    const Node& rhs = body.node(op.inputs[1]);
    if (rhs.kind == NodeKind::kConstant) {
      // Projection matmul: a real tiled digital schedule, heuristic pick.
      HTVM_ASSIGN_OR_RETURN(spec, dory::AnalyzeAnchor(body, op));
      HTVM_ASSIGN_OR_RETURN(
          sched, dory::BuildSchedule(spec, cfg, dory::AccelTarget::kDigital,
                                     options.tiler));
      perf.compute_cycles += sched.compute_cycles;
      perf.weight_dma_cycles += sched.weight_dma_cycles;
      perf.act_dma_cycles += sched.exposed_act_cycles;
      perf.overhead_cycles += sched.overhead_cycles;
      perf.peak_cycles = std::max(perf.peak_cycles, sched.peak_cycles);
      perf.full_cycles += sched.full_cycles;
      perf.tiles += static_cast<i64>(sched.steps.size());
      kernel->code_bytes +=
          tvmgen::AccelKernelCodeBytes(sched.solution.needs_tiling);
      kernel->weight_bytes +=
          dory::DeployedWeightBytes(spec, dory::AccelTarget::kDigital);
    } else {
      // Score / context matmul on activations: closed-form whole-tile
      // estimate, batched heads folded onto the row axis.
      const TensorType& bt = rhs.type;
      const bool tb = op.attrs.GetInt("transpose_b", 1) != 0;
      const i64 m = at.shape[at.shape.rank() - 2];
      const i64 kk = at.shape[at.shape.rank() - 1];
      const i64 cols = tb ? bt.shape[bt.shape.rank() - 2]
                          : bt.shape[bt.shape.rank() - 1];
      const i64 batch = at.shape.NumElements() / (m * kk);
      hw::TiledLayerGeom g;
      g.op = hw::TiledOp::kMatmul;
      g.c = g.c_t = kk;
      g.k = g.k_t = cols;
      g.oy = g.oy_t = g.iy = g.iy_t = batch * m;
      const i64 full = cost.EstimateAccelFullCycles(hw::AccelEngine::kDigital, g);
      perf.compute_cycles += full;
      perf.peak_cycles = std::max(perf.peak_cycles, full);
      perf.full_cycles += full;
      perf.tiles += 1;
    }
  }
  perf.overhead_cycles += cfg.runtime_call_overhead;
  perf.full_cycles += cfg.runtime_call_overhead;
  perf.peak_cycles = std::max(perf.peak_cycles, perf.full_cycles);
  return Status::Ok();
}

// Depth-first fused pair (diana.fused2, produced by ApplyGraphPlan): the
// two conv layers execute tile-by-tile with the intermediate map resident
// in L1 (dory/depth_first.hpp). Like diana.mhsa this kernel is
// schedule-free — execution replays the chained body on the reference
// interpreter, which keeps the fusion bit-exact with the sequential pair —
// and only the performance/size accounting is accelerator-aware. The
// depth-first solver is deterministic and records no search statistics.
Status CompileFusedKernel(const Node& n, const CompileOptions& options,
                          CompiledKernel* kernel) {
  const hw::DianaConfig& cfg = options.soc.config;
  HTVM_ASSIGN_OR_RETURN(pair, dory::AnalyzeFusedPairBody(*n.body));
  HTVM_ASSIGN_OR_RETURN(sched,
                        dory::BuildDepthFirstSchedule(pair, cfg,
                                                      options.tiler));
  hw::KernelPerf& perf = kernel->perf;
  perf.name = kernel->name;
  perf.target = kernel->target;
  perf.macs = sched.macs;
  perf.compute_cycles = sched.compute_cycles;
  perf.weight_dma_cycles = sched.weight_dma_cycles;
  perf.act_dma_cycles = sched.act_dma_cycles;
  perf.overhead_cycles = sched.overhead_cycles;
  perf.full_cycles = sched.full_cycles;
  perf.peak_cycles = sched.full_cycles;
  perf.tiles = sched.solution.n_y * sched.solution.n_x;
  kernel->code_bytes =
      tvmgen::AccelKernelCodeBytes(sched.solution.needs_tiling);
  kernel->weight_bytes =
      dory::DeployedWeightBytes(pair.first, dory::AccelTarget::kDigital) +
      dory::DeployedWeightBytes(pair.second, dory::AccelTarget::kDigital);
  return Status::Ok();
}

// Per-kernel compilation: DORY tiling schedules for accelerator
// composites, the cost/size models for CPU composites.
//
// Each composite's schedule is independent, so the per-kernel loop is
// sharded over the shared thread pool (options.compile_threads lanes).
// Determinism contract (locked down by tests/parallel_compile_test.cpp):
// the composite list is snapshotted and kernel indices/names assigned by
// node order *before* dispatch, every lane writes only its own slot, and
// the slots are spliced back in node order — so the artifact is
// byte-identical to the sequential pass, and ParallelFor's
// first-error-wins makes a failing compile report the same error too.
Status CompileKernelsPass(CompileState& state) {
  Artifact& artifact = state.artifact;
  const CompileOptions& options = state.options;
  std::vector<NodeId> composites;
  for (const Node& n : state.graph.nodes()) {
    if (n.kind == NodeKind::kComposite) composites.push_back(n.id);
  }
  const i64 count = static_cast<i64>(composites.size());
  std::vector<CompiledKernel> kernels(composites.size());
  for (i64 i = 0; i < count; ++i) {
    const Node& n = state.graph.node(composites[i]);
    kernels[i].node = n.id;
    kernels[i].name =
        StrFormat("%s#%lld", n.op.c_str(), static_cast<long long>(i));
    kernels[i].target = n.attrs.GetString("target", "cpu");
  }

  // One lane: compiles composite i into its pre-named slot. Reads only
  // the shared graph and options (both const for the whole pass).
  const auto compile_one = [&](i64 i) -> Status {
    const Node& n = state.graph.node(composites[static_cast<size_t>(i)]);
    CompiledKernel& kernel = kernels[static_cast<size_t>(i)];
    if (kernel.target == "cpu") {
      kernel.perf = tvmgen::CpuCompositePerf(options.soc.config, n, kernel.name);
      kernel.code_bytes = tvmgen::CpuKernelCodeBytes(n);
      kernel.weight_bytes = tvmgen::CpuKernelWeightBytes(n);
    } else if (n.op == "diana.mhsa") {
      HTVM_RETURN_IF_ERROR(CompileMhsaKernel(n, options, &kernel));
    } else if (n.op == "diana.fused2") {
      HTVM_RETURN_IF_ERROR(CompileFusedKernel(n, options, &kernel));
    } else {
      const dory::AccelTarget accel_target =
          kernel.target == "analog" ? dory::AccelTarget::kAnalog
                                    : dory::AccelTarget::kDigital;
      HTVM_ASSIGN_OR_RETURN(spec, dory::AnalyzeCompositeBody(*n.body));
      HTVM_ASSIGN_OR_RETURN(
          sched,
          dory::SearchSchedule(spec, options.soc.config, accel_target,
                               options.tiler, options.schedule_search));
      kernel.perf = dory::SchedulePerf(sched, kernel.name);
      kernel.code_bytes =
          tvmgen::AccelKernelCodeBytes(sched.solution.needs_tiling);
      kernel.weight_bytes = dory::DeployedWeightBytes(spec, accel_target);
      kernel.schedule = std::move(sched);
    }
    return Status::Ok();
  };

  const i64 lanes = options.compile_threads > 0
                        ? options.compile_threads
                        : ThreadPool::HardwareThreads();
  if (lanes <= 1 || count <= 1) {
    for (i64 i = 0; i < count; ++i) {
      HTVM_RETURN_IF_ERROR(compile_one(i));
    }
  } else {
    HTVM_RETURN_IF_ERROR(
        ParallelFor(SharedCompilePool(), count, lanes, compile_one));
  }

  i64 code_bytes = 0;
  i64 weight_bytes = 0;
  for (CompiledKernel& kernel : kernels) {
    code_bytes += kernel.code_bytes;
    weight_bytes += kernel.weight_bytes;
    artifact.kernels.push_back(std::move(kernel));
  }
  artifact.size.code_bytes = code_bytes;
  artifact.size.weight_bytes = weight_bytes;
  return Status::Ok();
}

// Binary image: code and weight bytes were accumulated per kernel; pick
// the runtime flavor.
Status ComputeBinarySizePass(CompileState& state) {
  state.artifact.size.runtime_bytes =
      state.options.plain_tvm ? tvmgen::kSizeModel.tvm_runtime_bytes
                              : tvmgen::kSizeModel.htvm_runtime_bytes;
  return Status::Ok();
}

// Ahead-of-time L2 schedule. Plain TVM's executor keeps every intermediate
// alive (no liveness reuse).
Status PlanL2MemoryPass(CompileState& state) {
  state.artifact.memory_plan =
      PlanL2Memory(state.graph, state.artifact.size.Total(),
                   state.options.soc.config.l2_bytes,
                   /*reuse=*/!state.options.plain_tvm);
  return Status::Ok();
}

Status FinalizeArtifactPass(CompileState& state) {
  // Copy (not move) so post-pipeline instrumentation still sees the
  // lowered graph in state.graph; composite bodies are shared pointers,
  // so this duplicates node metadata only.
  state.artifact.kernel_graph = state.graph;
  state.artifact.hw_config = state.options.soc.config;
  state.artifact.soc_name = state.options.soc.name;
  HTVM_ILOG << "compiled " << state.artifact.kernels.size() << " kernels, "
            << state.artifact.size.ToString()
            << ", arena=" << state.artifact.memory_plan.arena_bytes;
  return Status::Ok();
}

}  // namespace

PassManager BuildHtvmPassPipeline() {
  PassManager pm;
  pm.Add("AbsorbPadding", AbsorbPaddingPass)
      .Add("ConstantFold", ConstantFoldPass)
      .Add("PartitionGraph", PartitionGraphPass)
      .Add("InsertAnalogInputClamps", InsertAnalogInputClampsPass)
      .Add("LowerToKernels", LowerToKernelsPass)
      .Add("CompileKernels", CompileKernelsPass, /*mutates_graph=*/false)
      .Add("ComputeBinarySize", ComputeBinarySizePass, /*mutates_graph=*/false)
      .Add("PlanL2Memory", PlanL2MemoryPass, /*mutates_graph=*/false)
      .Add("FinalizeArtifact", FinalizeArtifactPass, /*mutates_graph=*/false);
  return pm;
}

}  // namespace htvm::compiler
