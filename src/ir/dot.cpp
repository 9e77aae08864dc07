#include "ir/dot.hpp"

#include "support/string_utils.hpp"

namespace htvm {
namespace {

const char* TargetColor(const std::string& target) {
  if (target == "digital") return "palegreen";
  if (target == "analog") return "orange";
  return "lightgray";
}

std::string EscapeLabel(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string GraphToDot(const Graph& graph) {
  std::string out = "digraph htvm {\n  rankdir=TB;\n  node [fontsize=10];\n";
  for (const Node& n : graph.nodes()) {
    std::string label;
    std::string style;
    switch (n.kind) {
      case NodeKind::kInput:
        label = "input " + n.name;
        style = "shape=ellipse, style=filled, fillcolor=lightblue";
        break;
      case NodeKind::kConstant:
        continue;
      case NodeKind::kOp:
        label = n.op;
        style = "shape=box";
        break;
      case NodeKind::kComposite: {
        const std::string target = n.attrs.GetString("target", "cpu");
        label = n.op + "\\n[" + target + "]";
        style = StrFormat("shape=box, style=filled, fillcolor=%s",
                          TargetColor(target));
        break;
      }
    }
    label += "\\n" + n.type.ToString();
    out += StrFormat("  n%d [label=\"%s\", %s];\n", n.id,
                     EscapeLabel(label).c_str(), style.c_str());
    for (NodeId in : n.inputs) {
      if (graph.node(in).kind == NodeKind::kConstant) continue;
      out += StrFormat("  n%d -> n%d;\n", in, n.id);
    }
  }
  // Mark outputs.
  for (NodeId id : graph.outputs()) {
    out += StrFormat("  out%d [label=\"output\", shape=ellipse, "
                     "style=filled, fillcolor=gold];\n  n%d -> out%d;\n",
                     id, id, id);
  }
  out += "}\n";
  return out;
}

}  // namespace htvm
