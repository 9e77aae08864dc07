// Operator attribute maps, the IR's equivalent of Relay attrs.
//
// Attributes are value-semantic and hashable-by-print so that pattern
// predicates (`has_attr`) and the IR printer can treat them uniformly.
#pragma once

#include <map>
#include <string>
#include <variant>
#include <vector>

#include "support/common.hpp"
#include "support/status.hpp"

namespace htvm {

using AttrValue =
    std::variant<bool, i64, double, std::string, std::vector<i64>>;

std::string AttrValueToString(const AttrValue& v);

class AttrMap {
 public:
  AttrMap() = default;
  AttrMap(std::initializer_list<std::pair<const std::string, AttrValue>> init)
      : values_(init) {}

  void Set(const std::string& key, AttrValue value) {
    values_[key] = std::move(value);
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  // Typed getters; fall back to `def` when the key is absent. A present key
  // with the wrong variant alternative is a hard error (graph construction
  // bug, not input data).
  i64 GetInt(const std::string& key, i64 def = 0) const;
  std::string GetString(const std::string& key,
                        const std::string& def = "") const;
  std::vector<i64> GetIntVec(const std::string& key,
                             const std::vector<i64>& def = {}) const;

  // Exact-match lookup used by pattern predicates; false when absent.
  bool Matches(const std::string& key, const AttrValue& expected) const;

  const std::map<std::string, AttrValue>& values() const { return values_; }

  // "{strides=[2, 2], groups=1}" — deterministic (map ordering).
  std::string ToString() const;

 private:
  std::map<std::string, AttrValue> values_;
};

}  // namespace htvm
