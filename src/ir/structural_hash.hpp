// Canonical structural hashing of graphs (the cache key of the
// compiled-artifact cache, docs/artifact_cache.md).
//
// StructuralHash reduces a graph to a 128-bit digest of everything the
// compiler can observe: topology, node kinds, op/composite names, node
// labels, attribute maps, tensor types (dtype + shape), constant payload
// bytes, and composite bodies (hashed recursively). Two guarantees:
//
//   - NodeId numbering and insertion order do not change the key: nodes are
//     re-numbered canonically by a deterministic DFS from the outputs (and
//     then the graph inputs), and nodes unreachable from both never enter
//     the hash at all.
//   - The hash is platform-stable: every value is folded in as explicit
//     64-bit arithmetic (strings byte-by-byte, doubles by IEEE-754 bit
//     pattern), never through size_t, pointer values or std::hash.
//
// DAG sharing is significant — a reused subexpression hashes differently
// from a duplicated one — because each node folds in the canonical ids of
// its inputs, not just their subtree digests.
#pragma once

#include <string>

#include "ir/graph.hpp"

namespace htvm::ir {

struct Hash128 {
  u64 hi = 0;
  u64 lo = 0;

  bool operator==(const Hash128& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const Hash128& o) const { return !(*this == o); }
  bool operator<(const Hash128& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }

  // 32 lowercase hex chars, hi lane first — stable file/cache-key text.
  std::string ToHex() const;
};

// Streaming 128-bit hasher: two independently seeded 64-bit lanes, each
// mixed with a splitmix64 finalizer per absorbed word.
class Hasher {
 public:
  explicit Hasher(u64 seed = 0);

  Hasher& Add(u64 value);
  Hasher& Add(i64 value) { return Add(static_cast<u64>(value)); }
  Hasher& Add(int value) {
    return Add(static_cast<u64>(static_cast<i64>(value)));
  }
  Hasher& Add(bool value) { return Add(static_cast<u64>(value ? 1 : 0)); }
  // IEEE-754 bit pattern; +0.0 and -0.0 hash differently (bit-exact key).
  Hasher& AddDouble(double value);
  Hasher& AddString(std::string_view s);
  Hasher& AddBytes(const u8* data, i64 size);
  Hasher& AddHash(const Hash128& h) { return Add(h.hi).Add(h.lo); }

  Hash128 Digest() const;

 private:
  u64 hi_ = 0;
  u64 lo_ = 0;
};

// Feeds a record's field walk (hw::VisitFields, dory::VisitFields) into a
// hasher: the options fingerprint and the search-problem fingerprint fold
// their records through it.
struct HashFields {
  Hasher& h;
  void I64(i64 v) { h.Add(v); }
  void F64(double v) { h.AddDouble(v); }
  void Bool(bool v) { h.Add(v); }
};

// Hashes one attribute value (tag + payload) into `h`.
void HashAttrValue(Hasher& h, const AttrValue& value);

// Hashes a full attribute map in its deterministic (sorted-key) order.
void HashAttrMap(Hasher& h, const AttrMap& attrs);

// Hashes dtype + shape + raw payload bytes of a tensor.
void HashTensor(Hasher& h, const Tensor& t);

// The canonical structural hash described above.
Hash128 StructuralHash(const Graph& graph);

}  // namespace htvm::ir
