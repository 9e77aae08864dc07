// Shared model registry: one place mapping a model name to its builder and
// default input shape, and a deployment config name to its compile options
// and precision policy, so htvmc, htvm-serve, the benches and the examples
// stop carrying their own copies of either lookup.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "compiler/pipeline.hpp"
#include "ir/graph.hpp"
#include "models/precision.hpp"

namespace htvm::models {

struct RegisteredModel {
  const char* name;           // canonical lower-case lookup key
  const char* task;           // benchmark task / workload family
  Graph (*build)(PrecisionPolicy);
  Shape default_input;        // shape of the graph's single input tensor
};

// All deployable models: the MLPerf Tiny suite (Table I order) plus the
// transformer workload. Names are lower-case; lookups fold case.
const std::vector<RegisteredModel>& Registry();

// Case-insensitive lookup; NotFound lists the registered names.
Result<Graph> BuildByName(const std::string& name, PrecisionPolicy policy);

// One "name  task  input-shape" line per model (htvmc --list-models).
std::string DescribeRegistry();

// A deployment configuration of Table I (tvm: CPU only; digital; analog;
// mixed: both accelerators, the default) and the weights it compiles.
struct DeployConfig {
  const char* name;
  PrecisionPolicy policy;
  compiler::CompileOptions (*options)();
};

// The four rows, in Table I order.
std::span<const DeployConfig> DeployConfigs();

// The row named `name`, or nullptr.
const DeployConfig* FindDeployConfig(std::string_view name);

}  // namespace htvm::models
