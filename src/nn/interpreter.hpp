// Graph interpreter over the reference kernels.
//
// Used as (a) the functional model behind both the CPU path and accelerator
// composite bodies, and (b) the evaluator for constant folding. Execution is
// value-by-value in node order (node order is topological by construction).
#pragma once

#include "ir/graph.hpp"
#include "ir/passes.hpp"
#include "nn/kernels.hpp"

namespace htvm::nn {

// Evaluates a single op node on materialized inputs. Returns Unsupported
// for unknown ops (constant folding leaves those in place).
Result<Tensor> EvalOp(const Node& node, std::span<const Tensor> inputs);

// InvalidArgument unless `inputs` match graph.inputs() in count, order,
// shape and dtype.
Status CheckInputs(const Graph& graph, std::span<const Tensor> inputs);

// Runs a whole graph; `inputs` must pass CheckInputs. Composite nodes are
// executed by recursing into their body.
Result<std::vector<Tensor>> RunGraph(const Graph& graph,
                                     std::span<const Tensor> inputs);

// Adapter for ir/passes.hpp's ConstantFold.
NodeEvaluator StandardEvaluator();

}  // namespace htvm::nn
