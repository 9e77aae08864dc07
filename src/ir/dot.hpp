// Graphviz DOT export for network graphs — pre- or post-partitioning.
// Composite nodes are colored by dispatch target (digital green, analog
// orange, cpu gray), reproducing the Fig. 1 coloring convention. Every
// label carries its tensor type; constants (weights) are left out, since
// they clutter large graphs.
#pragma once

#include <string>

#include "ir/graph.hpp"

namespace htvm {

std::string GraphToDot(const Graph& graph);

}  // namespace htvm
