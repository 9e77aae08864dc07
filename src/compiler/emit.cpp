#include "compiler/emit.hpp"

#include <cctype>
#include <fstream>

#include "compiler/c_runtime_header.hpp"
#include "dory/c_codegen.hpp"
#include "support/string_utils.hpp"
#include "tensor/quantize.hpp"
#include "tvmgen/c_codegen.hpp"

namespace htvm::compiler {
namespace {

std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& ch : out) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return out;
}

std::string EmitTensor(const char* ctype, const std::string& name,
                       const Tensor& t) {
  return tvmgen::EmitCArray(ctype, name, t.NumElements(),
                            [&](i64 i) { return t.GetFlat(i); });
}

}  // namespace

Status EmittedArtifact::WriteTo(const std::string& directory) const {
  for (const auto& [name, contents] : files) {
    std::ofstream out(directory + "/" + name);
    if (!out) {
      return Status::Internal("cannot write " + directory + "/" + name);
    }
    out << contents;
  }
  return Status::Ok();
}

Result<EmittedArtifact> EmitArtifactC(const Artifact& artifact,
                                      const std::string& net_name) {
  EmittedArtifact out;
  out.files["htvm_runtime.h"] = CRuntimeHeader();

  const Graph& g = artifact.kernel_graph;
  std::string c;
  c += StrFormat(
      "// %s.c — generated by the HTVM reproduction compiler.\n"
      "// %zu kernels; binary model %s; L2 arena %lld B.\n",
      net_name.c_str(), artifact.kernels.size(),
      artifact.size.ToString().c_str(),
      static_cast<long long>(artifact.memory_plan.arena_bytes));
  c += "#include \"htvm_runtime.h\"\n\n";

  // --- constants + kernel functions --------------------------------------
  std::vector<std::string> fn_names;
  for (const CompiledKernel& kernel : artifact.kernels) {
    const Node& node = g.node(kernel.node);
    const std::string fn = Sanitize(kernel.name);
    fn_names.push_back(fn);
    if (!kernel.schedule.has_value()) {
      // A CPU kernel prints the constants its body reads itself.
      HTVM_ASSIGN_OR_RETURN(code, tvmgen::EmitCpuKernelC(node, fn));
      c += code + "\n";
      continue;
    }
    const dory::AccelSchedule& sched = *kernel.schedule;
    const auto [weight, bias] = dory::FindWeightBias(*node.body);
    std::string wsym, bsym;
    if (bias != nullptr) {
      bsym = fn + "_b";
      c += EmitTensor("int32_t", bsym, *bias);
    }
    if (weight != nullptr) {
      wsym = fn + "_w";
      if (sched.target == dory::AccelTarget::kAnalog) {
        const std::vector<u8> packed = PackTernary(*weight);
        c += tvmgen::EmitCArray(
            "uint8_t", wsym, static_cast<i64>(packed.size()),
            [&](i64 i) { return packed[static_cast<size_t>(i)]; });
      } else {
        c += EmitTensor("int8_t", wsym, dory::TileMajorWeights(sched, *weight));
      }
    }
    HTVM_ASSIGN_OR_RETURN(code, dory::EmitAccelKernelC(sched, fn, wsym, bsym));
    c += code + "\n";
  }

  // --- buffer map from the ahead-of-time L2 schedule ----------------------
  std::map<NodeId, i64> offset_of;
  for (const BufferAssignment& buf : artifact.memory_plan.buffers) {
    offset_of[buf.value] = buf.offset;
  }
  const auto buffer_expr = [&](NodeId id) {
    HTVM_CHECK_MSG(offset_of.count(id), "value without an L2 buffer");
    return StrFormat("(l2_arena + %lld)",
                     static_cast<long long>(offset_of[id]));
  };
  // A kernel argument, typed as the kernel's parameter for a non-int8 value.
  const auto argument = [&](NodeId id, const char* qualifier) {
    const DType dtype = g.node(id).type.dtype;
    if (dtype == DType::kInt8) return buffer_expr(id);
    return StrFormat("(%s%s*)%s", qualifier, tvmgen::CTypeName(dtype),
                     buffer_expr(id).c_str());
  };

  // --- the network function (Fig. 2's sequential kernel program) ----------
  std::string sig = StrFormat("void %s_run(", net_name.c_str());
  for (size_t i = 0; i < g.inputs().size(); ++i) {
    sig += StrFormat("const int8_t* input%zu, ", i);
  }
  sig += "int8_t* output)";
  out.files[net_name + ".h"] =
      StrFormat("#ifndef %s_H_\n#define %s_H_\n#include <stdint.h>\n%s;\n"
                "#endif\n",
                net_name.c_str(), net_name.c_str(), sig.c_str());

  c += sig + " {\n";
  // The planner aligns every buffer to 8 bytes, so the arena must be too
  // for the int32 operands of a kernel.
  c += StrFormat("  static _Alignas(8) int8_t l2_arena[%lld];\n",
                 static_cast<long long>(
                     std::max<i64>(artifact.memory_plan.arena_bytes, 1)));
  for (size_t i = 0; i < g.inputs().size(); ++i) {
    const Node& in = g.node(g.inputs()[i]);
    c += StrFormat("  htvm_dma_1d(%s, input%zu, %lld);\n",
                   buffer_expr(in.id).c_str(), i,
                   static_cast<long long>(in.type.shape.NumElements() *
                                          DTypeSizeBytes(in.type.dtype)));
  }
  for (size_t i = 0; i < artifact.kernels.size(); ++i) {
    const CompiledKernel& kernel = artifact.kernels[i];
    const Node& node = g.node(kernel.node);
    std::string args;
    for (NodeId in : node.inputs) {
      args += argument(in, "const ") + ", ";
    }
    args += argument(node.id, "");
    c += StrFormat("  %s(%s);\n", fn_names[i].c_str(), args.c_str());
  }
  const Node& out_node = g.node(g.outputs()[0]);
  c += StrFormat("  htvm_dma_1d(output, %s, %lld);\n",
                 buffer_expr(out_node.id).c_str(),
                 static_cast<long long>(out_node.type.shape.NumElements() *
                                        DTypeSizeBytes(out_node.type.dtype)));
  c += "}\n";

  out.files[net_name + ".c"] = std::move(c);
  return out;
}

}  // namespace htvm::compiler
