// Graph-rewriting passes run by the pipeline before partitioning:
//   - dead-code elimination (drop nodes unreachable from the outputs)
//   - pad absorption (fold explicit nn.pad ops into conv padding)
//
// Constant folding evaluates ops, so it lives next to the evaluator:
// nn::ConstantFold in nn/interpreter.hpp.
#pragma once

#include "ir/graph.hpp"

namespace htvm {

// Removes nodes not reachable from graph outputs. Ids are compacted.
Graph DeadCodeElimination(const Graph& graph);

// Folds explicit nn.pad ops into the padding attribute of the conv2d that
// consumes them (TFLite imports materialize SAME padding as separate PAD
// ops; the accelerator patterns expect it on the conv). Pads with other
// consumers or non-conv consumers stay. Runs DCE afterwards. `rewrites`
// (optional) receives the number of absorbed pads, as for nn::ConstantFold.
Graph AbsorbPadding(const Graph& graph, i64* rewrites = nullptr);

// Rebuilds `graph` keeping only nodes where keep[id] is true; consumers of
// dropped nodes must themselves be dropped (checked). Returns the id
// remapping via `old_to_new` when non-null. Shared by the passes and the
// BYOC partitioner.
Graph RebuildGraph(const Graph& graph, const std::vector<bool>& keep,
                   std::vector<NodeId>* old_to_new);

}  // namespace htvm
