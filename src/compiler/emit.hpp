// Whole-artifact C emission: the deployable sources real HTVM hands to the
// RISC-V GCC toolchain (Fig. 1's output "single C function that executes
// all kernels sequentially", plus weights and the L2 memory schedule).
//
// Emitted files for a network `net`:
//   htvm_runtime.h   fixed runtime/driver call surface (portable stubs)
//   net.c            accelerator weight arrays, one function per kernel
//                    (a CPU kernel's constants precede it), and
//                    net_run(...) executing the kernel sequence against a
//                    statically scheduled L2 arena
//   net.h            public entry point declaration
//
// The generated sources are self-contained, compile standalone, and —
// because the CPU kernels are real loop nests — CPU-only deployments are
// functionally executable on the host (exercised by tests).
#pragma once

#include <map>

#include "compiler/artifact.hpp"

namespace htvm::compiler {

struct EmittedArtifact {
  std::map<std::string, std::string> files;  // filename -> contents

  // Writes every file into `directory` (created by the caller).
  Status WriteTo(const std::string& directory) const;
};

Result<EmittedArtifact> EmitArtifactC(const Artifact& artifact,
                                      const std::string& net_name);

}  // namespace htvm::compiler
