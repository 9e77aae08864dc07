#include "pattern/pattern.hpp"

#include "support/string_utils.hpp"

namespace htvm {

namespace {
PatternPtr Make(PatternNode node) {
  return std::make_shared<const PatternNode>(std::move(node));
}
}  // namespace

PatternPtr Wildcard() {
  PatternNode n;
  n.kind = PatternKind::kWildcard;
  return Make(std::move(n));
}

PatternPtr IsConstant() {
  PatternNode n;
  n.kind = PatternKind::kConstant;
  return Make(std::move(n));
}

PatternPtr IsOp(OpId op, std::vector<PatternPtr> inputs) {
  PatternNode n;
  n.kind = PatternKind::kOp;
  n.op = op;
  n.inputs = std::move(inputs);
  return Make(std::move(n));
}

PatternPtr Optional(PatternPtr base, OpId op) {
  PatternNode n;
  n.kind = PatternKind::kOptional;
  n.op = op;
  n.inputs = {std::move(base)};
  return Make(std::move(n));
}

PatternPtr HasAttr(PatternPtr p, const std::string& key, AttrValue value) {
  PatternNode n = *p;
  n.attr_constraints.emplace_back(key, std::move(value));
  return Make(std::move(n));
}

PatternPtr Labeled(PatternPtr p, const std::string& label) {
  PatternNode n = *p;
  n.label = label;
  return Make(std::move(n));
}

std::string PatternToString(const PatternPtr& p) {
  switch (p->kind) {
    case PatternKind::kWildcard: return "*";
    case PatternKind::kConstant: return "const";
    case PatternKind::kInputLike: return "in";
    case PatternKind::kOp: {
      std::vector<std::string> parts;
      for (const auto& in : p->inputs) parts.push_back(PatternToString(in));
      std::string s =
          std::string(OpName(p->op)) + "(" + Join(parts, ", ") + ")";
      for (const auto& [k, v] : p->attr_constraints) {
        s += StrFormat("{%s=%s}", k.c_str(), AttrValueToString(v).c_str());
      }
      return s;
    }
    case PatternKind::kOptional:
      return std::string(OpName(p->op)) + "?(" + PatternToString(p->inputs[0]) +
             ")";
  }
  HTVM_UNREACHABLE("bad pattern kind");
}

}  // namespace htvm
