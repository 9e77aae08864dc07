#include "compiler/pipeline.hpp"

#include "compiler/compile_passes.hpp"
#include "compiler/pass_manager.hpp"
#include "ir/map_graph.hpp"

namespace htvm::compiler {
namespace {

// Rebuilds one analog body with clip(-64, 63) on each activation input.
std::shared_ptr<const Graph> ClampBodyInputs(const Graph& body) {
  return std::make_shared<Graph>(ir::MapGraph(
      body, [](ir::GraphMapper& m, const Node& n) -> NodeId {
        switch (n.kind) {
          case NodeKind::kInput: {
            const NodeId in = m.out().AddInput(n.name, n.type);
            // 7-bit IMC input range.
            return n.type.dtype == DType::kInt8
                       ? m.out().AddOp("clip", {in},
                                       AttrMap{{"a_min", i64{-64}},
                                               {"a_max", i64{63}}})
                       : in;
          }
          case NodeKind::kComposite:
            HTVM_UNREACHABLE("nested composite in body");
          default:
            return m.Clone(n);
        }
      }));
}

}  // namespace

Graph InsertAnalogInputClamps(const Graph& partitioned) {
  return ir::MapGraph(
      partitioned, [](ir::GraphMapper& m, const Node& n) -> NodeId {
        if (n.kind == NodeKind::kComposite &&
            n.attrs.GetString("target") == "analog") {
          return m.out().AddComposite(n.op, m.MappedInputs(n),
                                      ClampBodyInputs(*n.body), n.attrs);
        }
        return m.Clone(n);
      });
}

Result<Artifact> HtvmCompiler::Compile(const Graph& network) const {
  // Input validation happens inside PassManager::Run, after the artifact-
  // cache lookup: a hit proves this exact graph content validated and
  // compiled before, so the hit path skips the re-check (and never copies
  // the network into the state).
  CompileState state(options_);
  const PassManager pipeline = BuildHtvmPassPipeline();
  HTVM_RETURN_IF_ERROR(pipeline.Run(network, state));
  return std::move(state.artifact);
}

}  // namespace htvm::compiler
