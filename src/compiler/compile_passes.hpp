// The standard HTVM pass pipeline: the Fig. 1 stages, each a file-local
// function listed once, by name, in BuildHtvmPassPipeline().
//
//   AbsorbPadding            fold explicit nn.pad into conv attributes
//   ConstantFold             evaluate all-constant subgraphs
//   PartitionGraph           accelerator-aware pattern dispatch (BYOC)
//   InsertAnalogInputClamps  7-bit IMC input range on analog bodies
//   LowerToKernels           TVM-native fusion of the CPU remainder
//   CompileKernels           per-kernel DORY schedules / CPU cost model
//   ComputeBinarySize        runtime + code + weight image bytes
//   PlanL2Memory             ahead-of-time L2 activation schedule
//   FinalizeArtifact         kernel graph + hw config into the artifact
//
// The sequence is fixed regardless of configuration; passes gate
// themselves on state.options (e.g. the plain-TVM baseline skips BYOC
// inside PartitionGraph), which keeps the pipeline snapshot stable for
// tests and tooling.
#pragma once

#include "compiler/pass_manager.hpp"

namespace htvm::compiler {

// Builds the standard pipeline above; PassNames() on it is the pipeline
// snapshot tests and docs pin.
PassManager BuildHtvmPassPipeline();

}  // namespace htvm::compiler
