#include "ir/serialize.hpp"

#include <fstream>
#include <sstream>

#include "support/string_utils.hpp"

namespace htvm {
namespace {

std::string EscapeString(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == ' ') {
      out += "\\x20";
    } else {
      out += c;
    }
  }
  return out;
}

std::string UnescapeString(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.compare(i, 4, "\\x20") == 0) {
      out += ' ';
      i += 3;
    } else {
      out += s[i];
    }
  }
  return out;
}

// One attribute value as a single token ("b:1", "i:3", "f:0x1.8p+1",
// "s:a\x20b", "v:2:1:2").
std::string EncodeAttrValue(const AttrValue& v) {
  if (const bool* b = std::get_if<bool>(&v)) {
    return std::string("b:") + (*b ? "1" : "0");
  }
  if (const i64* i = std::get_if<i64>(&v)) {
    return "i:" + std::to_string(*i);
  }
  if (const double* d = std::get_if<double>(&v)) {
    // C99 hex-float: every finite double round-trips bit-exactly through
    // strtod, and the rendering has one canonical form per value (no
    // shortest-decimal ambiguity across libc implementations).
    return StrFormat("f:%a", *d);
  }
  if (const std::string* s = std::get_if<std::string>(&v)) {
    return "s:" + EscapeString(*s);
  }
  const auto& vec = std::get<std::vector<i64>>(v);
  std::string out = "v:" + std::to_string(vec.size());
  for (i64 x : vec) out += ":" + std::to_string(x);
  return out;
}

Result<AttrValue> DecodeAttrValue(const std::string& token) {
  if (token.size() < 2 || token[1] != ':') {
    return Status::InvalidArgument("bad attr token: " + token);
  }
  const std::string payload = token.substr(2);
  switch (token[0]) {
    case 'b': return AttrValue(payload == "1");
    case 'i': return AttrValue(static_cast<i64>(std::stoll(payload)));
    case 'f': return AttrValue(std::stod(payload));
    case 's': return AttrValue(UnescapeString(payload));
    case 'v': {
      std::vector<i64> vec;
      std::stringstream ss(payload);
      std::string item;
      if (!std::getline(ss, item, ':')) {
        return Status::InvalidArgument("bad vector attr");
      }
      const i64 n = std::stoll(item);
      for (i64 i = 0; i < n; ++i) {
        if (!std::getline(ss, item, ':')) {
          return Status::InvalidArgument("truncated vector attr");
        }
        vec.push_back(std::stoll(item));
      }
      return AttrValue(std::move(vec));
    }
    default:
      return Status::InvalidArgument("unknown attr tag: " + token);
  }
}

}  // namespace

namespace detail_serialize {
Result<Graph> DeserializeGraphImpl(const std::string& text);
}  // namespace detail_serialize

std::string SerializeGraph(const Graph& graph) {
  std::string out = "htvm-graph v1\n";
  for (const Node& n : graph.nodes()) {
    switch (n.kind) {
      case NodeKind::kInput: {
        out += StrFormat("input %s %s %lld",
                         EscapeString(n.name.empty() ? "_" : n.name).c_str(),
                         DTypeName(n.type.dtype),
                         static_cast<long long>(n.type.shape.rank()));
        for (i64 d : n.type.shape.dims()) {
          out += " " + std::to_string(d);
        }
        out += "\n";
        break;
      }
      case NodeKind::kConstant: {
        out += StrFormat("const %s %s %lld",
                         EscapeString(n.name.empty() ? "_" : n.name).c_str(),
                         DTypeName(n.value.dtype()),
                         static_cast<long long>(n.value.shape().rank()));
        for (i64 d : n.value.shape().dims()) out += " " + std::to_string(d);
        for (i64 i = 0; i < n.value.NumElements(); ++i) {
          out += " " + std::to_string(n.value.GetFlat(i));
        }
        out += "\n";
        break;
      }
      case NodeKind::kOp: {
        out += StrFormat("op %s %zu", n.op.c_str(), n.inputs.size());
        for (NodeId in : n.inputs) out += " " + std::to_string(in);
        out += " " + std::to_string(n.attrs.values().size());
        for (const auto& [k, v] : n.attrs.values()) {
          out += " " + k + " " + EncodeAttrValue(v);
        }
        out += "\n";
        break;
      }
      case NodeKind::kComposite:
        // Composites are a post-partitioning construct; serialization covers
        // front-end graphs (pre-compilation), like the real TFLite/ONNX
        // ingestion path.
        HTVM_UNREACHABLE("cannot serialize partitioned graphs");
    }
  }
  out += StrFormat("output %zu", graph.outputs().size());
  for (NodeId id : graph.outputs()) out += " " + std::to_string(id);
  out += "\n";
  return out;
}

Result<Graph> DeserializeGraph(const std::string& text) {
  // std::stoll throws on malformed numbers; surface every parse failure as
  // a recoverable status instead (fuzzed/corrupted files must not abort).
  try {
    return detail_serialize::DeserializeGraphImpl(text);
  } catch (const std::exception& e) {
    return Status::InvalidArgument(std::string("parse error: ") + e.what());
  }
}

namespace detail_serialize {
namespace {

// Reads the `<rank> <dims...>` of an input or const record. Each dim is in
// [1, 2^20], and their product is at most kMaxTensorElements, so no record
// can describe an empty tensor or one whose element count overflows.
Result<Shape> ReadShape(std::istringstream& ls, const std::string& what) {
  i64 rank = -1;
  ls >> rank;
  if (rank < 0 || rank > 8) {
    return Status::InvalidArgument(what + " rank out of range");
  }
  std::vector<i64> dims(static_cast<size_t>(rank));
  i64 elems = 1;
  for (i64& d : dims) {
    ls >> d;
    if (d <= 0 || d > (i64{1} << 20)) {
      return Status::InvalidArgument(what + " dim out of range");
    }
    elems *= d;
    if (elems > kMaxTensorElements) {
      return Status::InvalidArgument(what + " too large");
    }
  }
  return Shape(std::move(dims));
}

}  // namespace

Result<Graph> DeserializeGraphImpl(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  if (!std::getline(stream, line) || line != "htvm-graph v1") {
    return Status::InvalidArgument("missing htvm-graph v1 header");
  }
  Graph g;
  bool outputs_set = false;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "input") {
      std::string name, dtype_s;
      ls >> name >> dtype_s;
      DType dtype;
      if (!ParseDType(dtype_s, &dtype)) {
        return Status::InvalidArgument("bad dtype: " + dtype_s);
      }
      HTVM_ASSIGN_OR_RETURN(shape, ReadShape(ls, "input"));
      if (!ls) return Status::InvalidArgument("truncated input record");
      g.AddInput(UnescapeString(name), {std::move(shape), dtype});
    } else if (kind == "const") {
      std::string name, dtype_s;
      ls >> name >> dtype_s;
      DType dtype;
      if (!ParseDType(dtype_s, &dtype)) {
        return Status::InvalidArgument("bad dtype: " + dtype_s);
      }
      HTVM_ASSIGN_OR_RETURN(shape, ReadShape(ls, "const"));
      if (!ls) return Status::InvalidArgument("truncated const record");
      Tensor t(std::move(shape), dtype);
      for (i64 i = 0; i < t.NumElements(); ++i) {
        i64 v;
        ls >> v;
        if (!ls) return Status::InvalidArgument("truncated constant data");
        t.SetFlat(i, v);
      }
      g.AddConstant(std::move(t), UnescapeString(name));
    } else if (kind == "op") {
      std::string op;
      i64 n_inputs = -1;
      ls >> op >> n_inputs;
      if (n_inputs < 0 || n_inputs > 64) {
        return Status::InvalidArgument("op input count out of range");
      }
      std::vector<NodeId> inputs(static_cast<size_t>(n_inputs));
      for (NodeId& id : inputs) ls >> id;
      i64 n_attrs = -1;
      ls >> n_attrs;
      if (n_attrs < 0 || n_attrs > 64) {
        return Status::InvalidArgument("op attr count out of range");
      }
      AttrMap attrs;
      for (i64 i = 0; i < n_attrs; ++i) {
        std::string key, token;
        ls >> key >> token;
        if (!ls) return Status::InvalidArgument("truncated attrs");
        HTVM_ASSIGN_OR_RETURN(value, DecodeAttrValue(token));
        attrs.Set(key, std::move(value));
      }
      auto id = g.TryAddOp(op, std::move(inputs), std::move(attrs));
      if (!id.ok()) return id.status();
    } else if (kind == "output") {
      i64 n = -1;
      ls >> n;
      if (n < 1 || n > 64) {
        return Status::InvalidArgument("output count out of range");
      }
      std::vector<NodeId> ids(static_cast<size_t>(n));
      for (NodeId& id : ids) {
        ls >> id;
        if (id < 0 || id >= g.NumNodes()) {
          return Status::InvalidArgument("output id out of range");
        }
      }
      if (!ls) return Status::InvalidArgument("truncated outputs");
      g.SetOutputs(std::move(ids));
      outputs_set = true;
    } else {
      return Status::InvalidArgument("unknown record: " + kind);
    }
  }
  if (!outputs_set) return Status::InvalidArgument("no output record");
  HTVM_RETURN_IF_ERROR(g.Validate());
  return g;
}
}  // namespace detail_serialize

Status SaveGraph(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path);
  out << SerializeGraph(graph);
  return Status::Ok();
}

Result<Graph> LoadGraph(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return DeserializeGraph(buffer.str());
}

}  // namespace htvm
