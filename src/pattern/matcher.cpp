#include "pattern/matcher.hpp"

#include <algorithm>

namespace htvm {

const Node& MatchResult::at(const Graph& g, const std::string& label) const {
  auto it = bindings.find(label);
  HTVM_CHECK_MSG(it != bindings.end(), "unknown match label");
  return g.node(it->second);
}

namespace {

// Recursive matcher. Fills `result` incrementally; the caller discards the
// result object on failure, so partial writes are harmless.
bool MatchRec(const Graph& graph, NodeId id, const PatternPtr& pattern,
              MatchResult* result) {
  const Node& node = graph.node(id);
  const auto check_attrs = [&](const Node& n) {
    return std::all_of(pattern->attr_constraints.begin(),
                       pattern->attr_constraints.end(),
                       [&](const auto& kv) {
                         return n.attrs.Matches(kv.first, kv.second);
                       });
  };
  const auto bind = [&]() {
    if (!pattern->label.empty()) result->bindings[pattern->label] = id;
  };

  switch (pattern->kind) {
    case PatternKind::kWildcard:
    case PatternKind::kInputLike: {
      // External input: record once, preserving discovery order.
      if (std::find(result->external_inputs.begin(),
                    result->external_inputs.end(),
                    id) == result->external_inputs.end()) {
        result->external_inputs.push_back(id);
      }
      bind();
      return true;
    }
    case PatternKind::kConstant: {
      if (node.kind != NodeKind::kConstant) return false;
      result->internal.insert(id);
      bind();
      return true;
    }
    case PatternKind::kOp: {
      if (!node.Is(pattern->op)) return false;
      if (node.inputs.size() != pattern->inputs.size()) return false;
      if (!check_attrs(node)) return false;
      for (size_t i = 0; i < pattern->inputs.size(); ++i) {
        if (!MatchRec(graph, node.inputs[i], pattern->inputs[i], result)) {
          return false;
        }
      }
      result->internal.insert(id);
      bind();
      return true;
    }
    case PatternKind::kOptional: {
      if (node.Is(pattern->op) &&
          node.inputs.size() == 1 && check_attrs(node)) {
        // Try with the optional op present; if its input matches the base,
        // absorb it. Use a scratch result so a failed inner match does not
        // leave stale externals behind.
        MatchResult scratch = *result;
        if (MatchRec(graph, node.inputs[0], pattern->inputs[0], &scratch)) {
          scratch.internal.insert(id);
          if (!pattern->label.empty()) scratch.bindings[pattern->label] = id;
          *result = std::move(scratch);
          return true;
        }
      }
      return MatchRec(graph, id, pattern->inputs[0], result);
    }
  }
  return false;
}

}  // namespace

bool MatchAt(const Graph& graph, NodeId root, const PatternPtr& pattern,
             const std::vector<i32>& use_counts, MatchResult* result) {
  MatchResult r;
  r.root = root;
  if (!MatchRec(graph, root, pattern, &r)) return false;

  // Exclusivity: internal non-root nodes may only feed other internal nodes.
  // Count uses of each internal node by other internal nodes and compare
  // with its global use count.
  std::map<NodeId, i32> internal_uses;
  for (NodeId id : r.internal) {
    for (NodeId in : graph.node(id).inputs) {
      if (r.internal.count(in)) ++internal_uses[in];
    }
  }
  for (NodeId id : r.internal) {
    if (id == root) continue;
    if (use_counts[static_cast<size_t>(id)] != internal_uses[id]) {
      return false;  // value escapes the fused region
    }
  }
  // An external input must not itself be internal (degenerate cycles).
  for (NodeId id : r.external_inputs) {
    if (r.internal.count(id)) return false;
  }
  *result = std::move(r);
  return true;
}

}  // namespace htvm
