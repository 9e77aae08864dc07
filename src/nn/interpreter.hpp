// Graph interpreter over the reference kernels.
//
// Used as (a) the functional model behind both the CPU path and accelerator
// composite bodies, and (b) the evaluator of constant folding, which lives
// here so it can call EvalOp directly. Execution is value-by-value in node
// order (node order is topological by construction).
#pragma once

#include "ir/graph.hpp"
#include "nn/kernels.hpp"

namespace htvm::nn {

// Evaluates a single op node on materialized inputs: one `case` per OpId,
// with no `default`, so every op of the table has an evaluator. A kernel's
// own error (a bad cast dtype) comes back as its Status.
Result<Tensor> EvalOp(const Node& node, std::span<const Tensor> inputs);

// InvalidArgument unless `inputs` match graph.inputs() in count, order,
// shape and dtype.
Status CheckInputs(const Graph& graph, std::span<const Tensor> inputs);

// Runs a whole graph; `inputs` must pass CheckInputs. Composite nodes are
// executed by recursing into their body.
Result<std::vector<Tensor>> RunGraph(const Graph& graph,
                                     std::span<const Tensor> inputs);

// Folds op nodes with all-constant inputs into constants (evaluated by
// EvalOp), then runs DeadCodeElimination. Nodes EvalOp fails on are left in
// place. When `rewrites` is non-null it receives the number of folded nodes
// — zero rewrites with an unchanged node count means the graph is
// untouched, which lets the PassManager skip post-pass re-validation and IR
// dumps.
Graph ConstantFold(const Graph& graph, i64* rewrites = nullptr);

}  // namespace htvm::nn
