// Link-layer proof that the deployable VM surface is compiler-free.
//
// This test target links htvm_vm + htvm_runtime + htvm_artifact (and their
// deps) but NOT htvm_compiler — tests/CMakeLists.txt wires it without the
// compiler library and the top-level htvm_assert_compiler_free() check
// walks the closure at configure time. If any vm/runtime code grows a
// compiler symbol dependency, this target stops linking.
//
// Functionally it exercises the whole compiler-free path: hand-build an
// artifact, serialize to HAB bytes, parse, execute the loaded artifact
// through runtime::Executor, and check the interpreter semantics survived
// the trip.
#include <gtest/gtest.h>

#include "nn/interpreter.hpp"
#include "runtime/executor.hpp"
#include "vm/hab.hpp"
#include "vm/loaded_artifact.hpp"
#include "vm/vm_executor.hpp"

namespace htvm::vm {
namespace {

// Minimal deployable artifact: one CPU kernel whose composite body is
// input -> nn.relu.
compiler::Artifact MakeReluArtifact() {
  auto body = std::make_shared<Graph>();
  const NodeId bin = body->AddInput("x", {Shape{1, 8}, DType::kInt8});
  const NodeId brelu = body->AddOp("nn.relu", {bin});
  body->SetOutputs({brelu});

  compiler::Artifact a;
  Graph& g = a.kernel_graph;
  const NodeId in = g.AddInput("x", {Shape{1, 8}, DType::kInt8});
  const NodeId comp = g.AddComposite("cpu.relu", {in}, body);
  g.SetOutputs({comp});

  compiler::CompiledKernel kernel;
  kernel.name = "cpu.relu#0";
  kernel.target = "cpu";
  kernel.node = comp;
  kernel.perf.name = kernel.name;
  kernel.perf.target = kernel.target;
  kernel.perf.full_cycles = 100;
  kernel.perf.peak_cycles = 100;
  a.kernels.push_back(std::move(kernel));
  a.memory_plan.fits = true;
  // One L2 buffer per value, as the loader's validation requires.
  a.memory_plan.buffers = {{.value = in, .offset = 0, .size = 8},
                           {.value = comp, .offset = 8, .size = 8}};
  a.memory_plan.arena_bytes = 64;
  a.memory_plan.total_l2_bytes = 64;
  return a;
}

TEST(VmLink, HabRoundTripAndExecuteWithoutCompiler) {
  const compiler::Artifact a = MakeReluArtifact();
  HabMeta meta;
  meta.model_name = "relu-micro";
  meta.producer = "vm_link_test";
  const std::string bytes = SerializeHab(a, meta);
  ASSERT_TRUE(LooksLikeHab(bytes));

  auto loaded = LoadedArtifact::FromBuffer(std::span<const u8>(
      reinterpret_cast<const u8*>(bytes.data()), bytes.size()));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta().model_name, "relu-micro");
  EXPECT_EQ(loaded->meta().producer, "vm_link_test");

  // Serialization is deterministic and parse reconstructs identical state.
  EXPECT_EQ(SerializeHab(loaded->artifact(), loaded->meta()), bytes);

  const runtime::Executor executor(loaded->artifact_ptr());
  Rng rng(11);
  const Tensor input = Tensor::Random(Shape{1, 8}, DType::kInt8, rng);
  auto result = executor.Run(std::vector<Tensor>{input});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->outputs.size(), 1u);

  // Same bytes as interpreting the body directly.
  auto reference = nn::RunGraph(*a.kernel_graph.node(1).body,
                                std::vector<Tensor>{input});
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(result->outputs[0].SameAs((*reference)[0]));
  EXPECT_EQ(loaded->artifact().TotalFullCycles(), 100);
}

TEST(VmLink, SyntheticInputsAreDeterministic) {
  const compiler::Artifact a = MakeReluArtifact();
  const std::vector<Tensor> x = SyntheticInputs(a, 42);
  const std::vector<Tensor> y = SyntheticInputs(a, 42);
  const std::vector<Tensor> z = SyntheticInputs(a, 43);
  ASSERT_EQ(x.size(), 1u);
  EXPECT_TRUE(x[0].SameAs(y[0]));
  EXPECT_FALSE(x[0].SameAs(z[0]));
}

}  // namespace
}  // namespace htvm::vm
