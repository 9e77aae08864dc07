// Runner-side I/O for a loaded HAB, no compiler linked.
//
// A runner executes a vm::LoadedArtifact through runtime::Executor
// (`runtime::Executor(loaded.artifact_ptr(), options)`). This header adds
// what a standalone runner process needs on top: deterministic synthetic
// inputs derived from the artifact's own graph signature (the same seed ->
// Tensor::Random scheme the serving layer uses, so `htvm-run` and an
// in-process run agree bit for bit), and a tensor-list file format for
// piping inputs/outputs between processes and asserting byte identity in CI.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "compiler/artifact.hpp"

namespace htvm::vm {

// One tensor per graph input, filled by Tensor::Random from `seed`. Both
// htvmc --run-outputs and htvm-run synthesize inputs through this exact
// function, which is what makes the CI byte-identity check meaningful.
std::vector<Tensor> SyntheticInputs(const compiler::Artifact& artifact,
                                    u64 seed);

// Flat tensor-list file ("HTVMTEN1" magic): dtype, shape and raw payload
// per tensor. Used for --dump-outputs / --input files.
Status SaveTensors(std::span<const Tensor> tensors, const std::string& path);
Result<std::vector<Tensor>> LoadTensors(const std::string& path);

}  // namespace htvm::vm
