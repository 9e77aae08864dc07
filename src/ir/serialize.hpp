// Text serialization of graphs — the reproduction's stand-in for the
// TFLite/ONNX ingestion path of Fig. 1 (the paper's front end "ingests a
// quantized DNN graph in common formats"; here the common format is a
// line-oriented text encoding with embedded constants).
//
// Format (one record per line, '#' comments allowed):
//   htvm-graph v1
//   input <name> <dtype> <rank> <dims...>
//   const <name> <dtype> <rank> <dims...> <elements...>
//   op <op-name> <num-inputs> <input-ids...> <num-attrs> {<key> <attr>}...
//   output <num> <ids...>
// Attr encoding: b:0|1, i:<int>, f:<float>, s:<string-with-\x20-escapes>,
// v:<n>:<ints...>
#pragma once

#include <string>

#include "ir/graph.hpp"

namespace htvm {

std::string SerializeGraph(const Graph& graph);

Result<Graph> DeserializeGraph(const std::string& text);

// Convenience file I/O.
Status SaveGraph(const Graph& graph, const std::string& path);
Result<Graph> LoadGraph(const std::string& path);

}  // namespace htvm
