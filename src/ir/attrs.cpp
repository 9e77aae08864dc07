#include "ir/attrs.hpp"

#include "support/string_utils.hpp"

namespace htvm {

std::string AttrValueToString(const AttrValue& v) {
  if (const bool* b = std::get_if<bool>(&v)) return *b ? "true" : "false";
  if (const i64* i = std::get_if<i64>(&v)) return std::to_string(*i);
  if (const double* d = std::get_if<double>(&v)) return StrFormat("%g", *d);
  if (const std::string* s = std::get_if<std::string>(&v)) return "\"" + *s + "\"";
  if (const auto* vec = std::get_if<std::vector<i64>>(&v))
    return IntVecToString(*vec);
  HTVM_UNREACHABLE("bad attr variant");
}

namespace {
template <typename T>
const T* GetAs(const std::map<std::string, AttrValue>& values,
               const std::string& key) {
  auto it = values.find(key);
  if (it == values.end()) return nullptr;
  const T* typed = std::get_if<T>(&it->second);
  HTVM_CHECK_MSG(typed != nullptr, "attribute present with wrong type");
  return typed;
}
}  // namespace

i64 AttrMap::GetInt(const std::string& key, i64 def) const {
  const i64* v = GetAs<i64>(values_, key);
  return v ? *v : def;
}

std::string AttrMap::GetString(const std::string& key,
                               const std::string& def) const {
  const std::string* v = GetAs<std::string>(values_, key);
  return v ? *v : def;
}

std::vector<i64> AttrMap::GetIntVec(const std::string& key,
                                    const std::vector<i64>& def) const {
  const std::vector<i64>* v = GetAs<std::vector<i64>>(values_, key);
  return v ? *v : def;
}

bool AttrMap::Matches(const std::string& key, const AttrValue& expected) const {
  auto it = values_.find(key);
  return it != values_.end() && it->second == expected;
}

std::string AttrMap::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const auto& [k, v] : values_) {
    parts.push_back(k + "=" + AttrValueToString(v));
  }
  return "{" + Join(parts, ", ") + "}";
}

}  // namespace htvm
