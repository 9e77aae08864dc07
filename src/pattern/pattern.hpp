// Relay-style pattern language (the paper's Listing 1).
//
// Patterns are immutable trees built with combinators:
//
//   auto conv = IsOp(OpId::kConv2d, {Wildcard(), Wildcard()});
//   auto bias = IsOp(OpId::kBiasAdd, {conv, Wildcard()});
//   auto shft = IsOp(OpId::kRightShift, {bias, IsConstant()});
//   auto clip = IsOp(OpId::kClip, {shft});
//   auto cast = HasAttr(IsOp(OpId::kCast, {clip}), "dtype",
//                       std::string("int8"));
//   auto act  = Optional(cast, OpId::kClip);  // optional ReLU clip on top
//
// Ops are OpIds, so a misspelled op is a compile error.
//
// A match binds each pattern node to a graph node; the rewriter then
// collapses the matched set into a composite node (BYOC partitioning).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/attrs.hpp"
#include "ir/op.hpp"

namespace htvm {

enum class PatternKind : u8 {
  kWildcard,   // matches any producer
  kConstant,   // matches a constant node
  kInputLike,  // matches anything that is *not* part of the fused region
               // (wildcard that becomes a composite input)
  kOp,         // matches a specific op with sub-patterns on its inputs
  kOptional,   // matches an optional single-input op layered on a base
};

struct PatternNode;
using PatternPtr = std::shared_ptr<const PatternNode>;

struct PatternNode {
  PatternKind kind = PatternKind::kWildcard;
  OpId op = OpId::kConv2d;             // for kOp / kOptional
  std::vector<PatternPtr> inputs;      // for kOp (and base for kOptional)
  // Attribute constraints: every (key, value) must be present and equal.
  std::vector<std::pair<std::string, AttrValue>> attr_constraints;
  // Optional label; labelled nodes can be looked up from a MatchResult
  // (e.g. the dispatcher reads the conv node's attrs through label "root").
  std::string label;
};

PatternPtr Wildcard();
PatternPtr IsConstant();
PatternPtr IsOp(OpId op, std::vector<PatternPtr> inputs);
// Wraps `base` with an optional single-input `op` on top (Listing 1's
// `cast.optional(is_op("clip"))`).
PatternPtr Optional(PatternPtr base, OpId op);
PatternPtr HasAttr(PatternPtr p, const std::string& key, AttrValue value);
PatternPtr Labeled(PatternPtr p, const std::string& label);

std::string PatternToString(const PatternPtr& p);

}  // namespace htvm
