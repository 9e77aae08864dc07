#include "compiler/dispatch.hpp"

#include "compiler/accel_spec.hpp"
#include "pattern/std_patterns.hpp"
#include "support/logging.hpp"
#include "support/string_utils.hpp"

namespace htvm::compiler {

Result<dory::AccelLayerSpec> SpecFromMatch(const Graph& graph,
                                           const MatchResult& match) {
  const auto anchor_it = match.bindings.find("anchor");
  if (anchor_it == match.bindings.end()) {
    return Status::Internal("match has no anchor binding");
  }
  const Node& anchor = graph.node(anchor_it->second);
  dory::AccelLayerSpec spec;

  if (anchor.op == "nn.conv2d") {
    const TensorType& data = graph.node(anchor.inputs[0]).type;
    const TensorType& weight = graph.node(anchor.inputs[1]).type;
    if (data.shape.rank() != 4 || data.shape[0] != 1) {
      return Status::Unsupported("conv2d: batch-1 NCHW required");
    }
    const i64 groups = anchor.attrs.GetInt("groups", 1);
    const bool dw = groups == data.shape[1] && weight.shape[1] == 1 &&
                    groups > 1;
    if (groups != 1 && !dw) {
      return Status::Unsupported("grouped conv unsupported");
    }
    spec.kind = dw ? dory::LayerKind::kDwConv2d : dory::LayerKind::kConv2d;
    spec.c = data.shape[1];
    spec.iy = data.shape[2];
    spec.ix = data.shape[3];
    spec.k = weight.shape[0];
    spec.kh = weight.shape[2];
    spec.kw = weight.shape[3];
    const auto strides = anchor.attrs.GetIntVec("strides", {1, 1});
    spec.sy = strides[0];
    spec.sx = strides[1];
    HTVM_ASSIGN_OR_RETURN(pad, NormalizePadding(anchor.attrs, "conv2d"));
    spec.pad_t = pad[0];
    spec.pad_l = pad[1];
    spec.pad_b = pad[2];
    spec.pad_r = pad[3];
    spec.oy = anchor.type.shape[2];
    spec.ox = anchor.type.shape[3];
    spec.weight_dtype = weight.dtype;
  } else if (anchor.op == "nn.dense") {
    const TensorType& data = graph.node(anchor.inputs[0]).type;
    const TensorType& weight = graph.node(anchor.inputs[1]).type;
    if (data.shape[0] != 1) return Status::Unsupported("dense: batch 1 only");
    spec.kind = dory::LayerKind::kDense;
    spec.c = data.shape[1];
    spec.k = weight.shape[0];
    spec.weight_dtype = weight.dtype;
  } else if (anchor.op == "matmul") {
    const TensorType& data = graph.node(anchor.inputs[0]).type;
    const Node& weight = graph.node(anchor.inputs[1]);
    if (weight.kind != NodeKind::kConstant) {
      return Status::Unsupported("matmul: activation weights stay on CPU");
    }
    if (anchor.attrs.GetInt("transpose_b", 1) == 0) {
      return Status::Unsupported("matmul: accel path needs [N, K] weight");
    }
    if (data.shape.rank() != 2 || weight.type.shape.rank() != 2) {
      return Status::Unsupported("matmul: rank-2 operands required");
    }
    spec.kind = dory::LayerKind::kMatmul;
    spec.c = data.shape[1];
    spec.k = weight.type.shape[0];
    spec.oy = spec.iy = data.shape[0];
    spec.weight_dtype = weight.type.dtype;
  } else if (anchor.op == "add") {
    const TensorType& lhs = graph.node(anchor.inputs[0]).type;
    spec.kind = dory::LayerKind::kAdd;
    if (lhs.shape.rank() == 4) {
      spec.c = spec.k = lhs.shape[1];
      spec.iy = spec.oy = lhs.shape[2];
      spec.ix = spec.ox = lhs.shape[3];
    } else {
      spec.c = spec.k = lhs.shape.NumElements();
    }
  } else {
    return Status::Unsupported("unknown anchor op " + anchor.op);
  }
  HTVM_RETURN_IF_ERROR(
      dory::AnalyzeRequantChain(graph, match.root, anchor.id, &spec.requant));
  return spec;
}

namespace {

std::string LayerSummary(const dory::AccelLayerSpec& s) {
  return StrFormat("%s C=%lld K=%lld %lldx%lld k%lldx%lld %s",
                   dory::LayerKindName(s.kind), (long long)s.c,
                   (long long)s.k, (long long)s.iy, (long long)s.ix,
                   (long long)s.kh, (long long)s.kw,
                   DTypeName(s.weight_dtype));
}

void LogDecision(DispatchLog* log, const Graph&, const MatchResult& match,
                 const char* pattern, const dory::AccelLayerSpec* spec,
                 const std::string& target, const std::string& reason) {
  if (log == nullptr) return;
  DispatchDecision d;
  d.root = match.root;
  d.pattern = pattern;
  d.layer = spec ? LayerSummary(*spec) : "(unanalyzable)";
  d.target = target;
  d.reason = reason;
  log->push_back(std::move(d));
}

MatchPredicate MakeDianaPredicate(const DispatchOptions& options,
                                  const hw::DianaConfig& cfg,
                                  const dory::TilerOptions& tiler_options,
                                  const char* pattern, DispatchLog* log) {
  return [options, cfg, tiler_options, pattern, log](
             const Graph& graph, const MatchResult& match, AttrMap* attrs) {
    auto spec = SpecFromMatch(graph, match);
    if (!spec.ok()) {
      LogDecision(log, graph, match, pattern, nullptr, "cpu",
                  spec.status().message());
      return false;
    }

    // Weight bit-width selects the accelerator; a tiling feasibility probe
    // guards against layers no schedule can fit into L1.
    dory::AccelTarget target;
    if (options.enable_analog && AnalogSupports(*spec, cfg)) {
      target = dory::AccelTarget::kAnalog;
    } else if (options.enable_digital && DigitalSupports(*spec, cfg)) {
      target = dory::AccelTarget::kDigital;
    } else {
      LogDecision(log, graph, match, pattern, &*spec, "cpu",
                  "no enabled accelerator supports the layer parameters");
      return false;
    }
    auto tiling = dory::SolveTiling(*spec, cfg, target, tiler_options);
    if (!tiling.ok()) {
      HTVM_ILOG << "dispatch: tiling infeasible for "
                << dory::LayerKindName(spec->kind) << " -> CPU fallback";
      LogDecision(log, graph, match, pattern, &*spec, "cpu",
                  "tiling infeasible: " + tiling.status().message());
      return false;
    }
    attrs->Set("target", std::string(dory::AccelTargetName(target)));
    LogDecision(log, graph, match, pattern, &*spec,
                dory::AccelTargetName(target),
                spec->weight_dtype == DType::kTernary
                    ? "ternary weights -> analog IMC"
                    : "int8 weights -> digital array");
    return true;
  };
}

// Whole-block MHSA acceptance: every head-projection / output-projection
// matmul must be digitally supported and individually tileable into L1.
// The probe mirrors what CompileKernels later schedules, so acceptance
// here can never strand an uncompilable kernel.
MatchPredicate MakeMhsaPredicate(const DispatchOptions& options,
                                 const hw::DianaConfig& cfg,
                                 const dory::TilerOptions& tiler_options,
                                 DispatchLog* log) {
  return [options, cfg, tiler_options, log](
             const Graph& graph, const MatchResult& match, AttrMap* attrs) {
    const auto anchor_it = match.bindings.find("anchor");
    if (anchor_it == match.bindings.end()) return false;
    const Node& anchor = graph.node(anchor_it->second);
    // All four projections share the sequence length of the block input.
    const i64 rows = graph.node(anchor.inputs[0]).type.shape[0];
    static constexpr const char* kWeights[] = {"q_weight", "k_weight",
                                               "v_weight", "o_weight"};
    for (const char* label : kWeights) {
      const auto it = match.bindings.find(label);
      if (it == match.bindings.end()) return false;
      const TensorType& wt = graph.node(it->second).type;
      dory::AccelLayerSpec spec;
      spec.kind = dory::LayerKind::kMatmul;
      spec.c = wt.shape[1];
      spec.k = wt.shape[0];
      spec.oy = spec.iy = rows;
      spec.weight_dtype = wt.dtype;
      if (!DigitalSupports(spec, cfg)) {
        LogDecision(log, graph, match, "diana.mhsa", &spec, "cpu",
                    StrFormat("%s not digitally supported", label));
        return false;
      }
      auto tiling = dory::SolveTiling(spec, cfg, dory::AccelTarget::kDigital,
                                      tiler_options);
      if (!tiling.ok()) {
        LogDecision(log, graph, match, "diana.mhsa", &spec, "cpu",
                    StrFormat("%s tiling infeasible: %s", label,
                              tiling.status().message().c_str()));
        return false;
      }
    }
    attrs->Set("target", std::string("digital"));
    LogDecision(log, graph, match, "diana.mhsa", nullptr, "digital",
                "whole attention block -> digital array");
    return true;
  };
}

}  // namespace

std::vector<PatternRule> MakeDianaDispatchRules(
    const DispatchOptions& options, const hw::DianaConfig& cfg,
    const dory::TilerOptions& tiler_options, DispatchLog* log) {
  std::vector<PatternRule> rules;
  if (options.enable_attention_offload && options.enable_digital) {
    // Higher priority than the per-op rules so PartitionGraph hands the
    // whole attention block to the digital accelerator in one piece.
    rules.push_back({"diana.mhsa", MultiHeadSelfAttentionPattern(),
                     MakeMhsaPredicate(options, cfg, tiler_options, log),
                     20});
    rules.push_back({"diana.matmul", MatmulChainPattern(),
                     MakeDianaPredicate(options, cfg, tiler_options,
                                        "diana.matmul", log),
                     10});
  }
  rules.push_back({"diana.conv2d", ConvChainPattern(),
                   MakeDianaPredicate(options, cfg, tiler_options,
                                      "diana.conv2d", log),
                   10});
  rules.push_back({"diana.dense", DenseChainPattern(),
                   MakeDianaPredicate(options, cfg, tiler_options,
                                      "diana.dense", log),
                   10});
  rules.push_back({"diana.add", AddChainPattern(),
                   MakeDianaPredicate(options, cfg, tiler_options,
                                      "diana.add", log),
                   10});

  if (options.enable_tuned_cpu_library) {
    // Hand-tuned CPU kernels accept any int8 chain the accelerators
    // rejected; they still execute on the host, so the composite carries
    // target "cpu" plus the library marker the cost/size models read.
    const MatchPredicate tuned = [](const Graph& graph,
                                    const MatchResult& match,
                                    AttrMap* attrs) {
      auto spec = SpecFromMatch(graph, match);
      if (!spec.ok()) return false;
      if (spec->weight_dtype == DType::kTernary) return false;  // int8 only
      attrs->Set("target", std::string("cpu"));
      attrs->Set("kernel_lib", std::string("tuned"));
      return true;
    };
    rules.push_back({"pulpnn.conv2d", ConvChainPattern(), tuned, 5});
    rules.push_back({"pulpnn.dense", DenseChainPattern(), tuned, 5});
    rules.push_back({"pulpnn.add", AddChainPattern(), tuned, 5});
  }
  return rules;
}

std::vector<PatternRule> MakeDianaDispatchRules(
    const DispatchOptions& options, const hw::SocDescription& soc,
    const dory::TilerOptions& tiler_options, DispatchLog* log) {
  DispatchOptions gated = options;
  gated.enable_digital = gated.enable_digital && soc.has_digital;
  gated.enable_analog = gated.enable_analog && soc.has_analog;
  // Attention offload is reserved for the full-featured SoCs: reduced
  // variants (no analog array, scalar host) execute transformer blocks
  // per-op on the CPU path instead, which is exactly the fallback the
  // transformer differential tests pin down.
  gated.enable_attention_offload = gated.enable_attention_offload &&
                                   soc.has_digital && soc.has_analog &&
                                   soc.simd == hw::CpuSimdClass::kXpulpV2;
  return MakeDianaDispatchRules(gated, soc.config, tiler_options, log);
}

}  // namespace htvm::compiler
