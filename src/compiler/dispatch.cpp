#include "compiler/dispatch.hpp"

#include <utility>

#include "compiler/accel_spec.hpp"
#include "pattern/std_patterns.hpp"
#include "support/logging.hpp"
#include "support/string_utils.hpp"

namespace htvm::compiler {

namespace {

// The layer a structural match offloads: its anchor's geometry plus the
// requant chain that ends at the match root.
Result<dory::AccelLayerSpec> SpecFromMatch(const Graph& graph,
                                           const MatchResult& match) {
  const auto anchor_it = match.bindings.find("anchor");
  if (anchor_it == match.bindings.end()) {
    return Status::Internal("match has no anchor binding");
  }
  HTVM_ASSIGN_OR_RETURN(
      spec, dory::AnalyzeAnchor(graph, graph.node(anchor_it->second)));
  HTVM_RETURN_IF_ERROR(dory::AnalyzeRequantChain(
      graph, match.root, anchor_it->second, &spec.requant));
  return spec;
}

std::string LayerSummary(const dory::AccelLayerSpec& s) {
  return StrFormat("%s C=%lld K=%lld %lldx%lld k%lldx%lld %s",
                   dory::LayerKindName(s.kind), (long long)s.c,
                   (long long)s.k, (long long)s.iy, (long long)s.ix,
                   (long long)s.kh, (long long)s.kw,
                   DTypeName(s.weight_dtype));
}

void LogDecision(DispatchLog* log, const MatchResult& match,
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
      LogDecision(log, match, pattern, nullptr, "cpu", spec.status().message());
      return false;
    }

    // Weight bit-width selects the accelerator; an L2 bound and a tiling
    // feasibility probe guard against layers no schedule can deploy. The
    // probe stops at the first shape that fits; CompileKernels solves the
    // layer once.
    dory::AccelTarget target;
    if (options.enable_analog && AnalogSupports(*spec, cfg)) {
      target = dory::AccelTarget::kAnalog;
    } else if (options.enable_digital && DigitalSupports(*spec)) {
      target = dory::AccelTarget::kDigital;
    } else {
      LogDecision(log, match, pattern, &*spec, "cpu",
                  "no enabled accelerator supports the layer parameters");
      return false;
    }
    Status fits = CheckL2Fits(*spec, cfg, target);
    if (!fits.ok()) {
      LogDecision(log, match, pattern, &*spec, "cpu", fits.message());
      return false;
    }
    fits = dory::CheckTilingFits(*spec, cfg, target, tiler_options);
    if (!fits.ok()) {
      HTVM_ILOG << "dispatch: tiling infeasible for "
                << dory::LayerKindName(spec->kind) << " -> CPU fallback";
      LogDecision(log, match, pattern, &*spec, "cpu",
                  "tiling infeasible: " + fits.message());
      return false;
    }
    attrs->Set("target", std::string(dory::AccelTargetName(target)));
    LogDecision(log, match, pattern, &*spec,
                dory::AccelTargetName(target),
                spec->weight_dtype == DType::kTernary
                    ? "ternary weights -> analog IMC"
                    : "int8 weights -> digital array");
    return true;
  };
}

// Whole-block MHSA acceptance: every head-projection / output-projection
// matmul must be digitally supported, fit L2 and be tileable into L1. Each
// projection is read with the same AnalyzeAnchor that CompileMhsaKernel later
// schedules, so acceptance here can never strand an uncompilable kernel.
MatchPredicate MakeMhsaPredicate(const DispatchOptions& options,
                                 const hw::DianaConfig& cfg,
                                 const dory::TilerOptions& tiler_options,
                                 DispatchLog* log) {
  return [options, cfg, tiler_options, log](
             const Graph& graph, const MatchResult& match, AttrMap* attrs) {
    // The projection matmuls' match labels, and the weights that name
    // them in the log.
    static constexpr std::pair<const char*, const char*> kProjections[] = {
        {"q_proj", "q_weight"},
        {"k_proj", "k_weight"},
        {"v_proj", "v_weight"},
        {"anchor", "o_weight"}};
    for (const auto& [label, weight] : kProjections) {
      const auto it = match.bindings.find(label);
      if (it == match.bindings.end()) return false;
      auto spec = dory::AnalyzeAnchor(graph, graph.node(it->second));
      if (!spec.ok()) {
        LogDecision(log, match, "diana.mhsa", nullptr, "cpu",
                    StrFormat("%s: %s", weight,
                              spec.status().message().c_str()));
        return false;
      }
      if (!DigitalSupports(*spec)) {
        LogDecision(log, match, "diana.mhsa", &*spec, "cpu",
                    StrFormat("%s not digitally supported", weight));
        return false;
      }
      Status fits = CheckL2Fits(*spec, cfg, dory::AccelTarget::kDigital);
      if (!fits.ok()) {
        LogDecision(log, match, "diana.mhsa", &*spec, "cpu",
                    StrFormat("%s %s", weight, fits.message().c_str()));
        return false;
      }
      fits = dory::CheckTilingFits(*spec, cfg, dory::AccelTarget::kDigital,
                                   tiler_options);
      if (!fits.ok()) {
        LogDecision(log, match, "diana.mhsa", &*spec, "cpu",
                    StrFormat("%s tiling infeasible: %s", weight,
                              fits.message().c_str()));
        return false;
      }
    }
    attrs->Set("target", std::string("digital"));
    LogDecision(log, match, "diana.mhsa", nullptr, "digital",
                "whole attention block -> digital array");
    return true;
  };
}

}  // namespace

std::vector<PatternRule> MakeDianaDispatchRules(
    const DispatchOptions& requested, const hw::SocDescription& soc,
    const dory::TilerOptions& tiler_options, DispatchLog* log) {
  DispatchOptions options = requested;
  options.enable_digital = options.enable_digital && soc.has_digital;
  options.enable_analog = options.enable_analog && soc.has_analog;
  const hw::DianaConfig& cfg = soc.config;
  std::vector<PatternRule> rules;
  // Attention offload is reserved for the full-featured SoCs: reduced
  // variants (no analog array, scalar host) execute transformer blocks
  // per-op on the CPU path instead, which is exactly the fallback the
  // transformer differential tests pin down.
  if (options.enable_digital && soc.has_analog &&
      soc.simd == hw::CpuSimdClass::kXpulpV2) {
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

}  // namespace htvm::compiler
