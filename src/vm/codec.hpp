// Flat little-endian codec shared by HAB sections and tensor-list files.
//
// Encoder and Decoder expose the same calls, so a record's layout is one
// field function, templated on the codec and on the record's constness:
//
//   template <typename Io, RecordOf<Foo> R>
//   void VisitFields(Io& io, R& foo) {
//     io.I64(foo.count);
//     io.Str(foo.name);
//     io.List(foo.items, kMaxItems, "item");
//   }
//
// encodes a const Foo and decodes into a mutable one. List and Optional
// walk their elements through VisitFields, found by argument-dependent
// lookup, so field functions live in a named namespace.
//
// The Decoder latches the first error as a typed InvalidArgument prefixed
// with its context (e.g. "hab graph section"). After an error every read
// is a no-op and lists stop decoding, so field functions carry no error
// plumbing; Finish() reports the latched error or unread trailing bytes.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ir/op.hpp"
#include "support/status.hpp"
#include "support/string_utils.hpp"

namespace htvm::vm {

inline constexpr DType kMaxDType = DType::kTernary;

// Scalar list elements (channel shifts, node ids).
template <typename Io, RecordOf<i64> R>
void VisitFields(Io& io, R& v) {
  io.I64(v);
}
template <typename Io, RecordOf<i32> R>
void VisitFields(Io& io, R& v) {
  io.I32(v);
}

class Encoder {
 public:
  void U8(u8 v) { out_.push_back(static_cast<char>(v)); }
  void U32(u32 v) { Raw(&v, sizeof v); }
  void U64(u64 v) { Raw(&v, sizeof v); }
  void I32(i32 v) { Raw(&v, sizeof v); }
  void I64(i64 v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(const std::string& s) {
    U32(static_cast<u32>(s.size()));
    Raw(s.data(), s.size());
  }
  // A u8 tag; the decoder rejects values above `max`.
  template <typename E>
  void Enum(E v, E /*max*/, const char* /*what*/) {
    U8(static_cast<u8>(v));
  }
  // A u32 count, then each element's fields.
  template <typename T>
  void List(const std::vector<T>& items, i64 /*cap*/, const char* /*what*/) {
    U32(static_cast<u32>(items.size()));
    for (const T& item : items) VisitFields(*this, item);
  }
  // A presence flag, then the fields when present.
  template <typename T>
  void Optional(const std::optional<T>& v) {
    Bool(v.has_value());
    if (v.has_value()) VisitFields(*this, *v);
  }
  // A u64 length, then the bytes.
  void Bytes(const u8* data, i64 size) {
    U64(static_cast<u64>(size));
    Raw(data, static_cast<size_t>(size));
  }
  void Raw(const void* data, size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }

  const std::string& bytes() const { return out_; }

 private:
  std::string out_;
};

// Bytes that `encode(Encoder&)` writes.
template <typename F>
i64 EncodedSize(F&& encode) {
  Encoder e;
  encode(e);
  return static_cast<i64>(e.bytes().size());
}

// Encoded size of a default-constructed T: every string and list empty,
// every optional absent, so no T encodes shorter. Decoder::List uses it to
// bound a declared count by the bytes left.
template <typename T>
i64 MinRecordBytes() {
  static const i64 bytes = EncodedSize([](Encoder& e) {
    const T record{};
    VisitFields(e, record);
  });
  return bytes;
}

class Decoder {
 public:
  Decoder(std::span<const u8> data, std::string context)
      : data_(data), context_(std::move(context)) {}

  void U8(u8& v) { Take(&v, sizeof v); }
  void U32(u32& v) { Take(&v, sizeof v); }
  void I32(i32& v) { Take(&v, sizeof v); }
  void I64(i64& v) { Take(&v, sizeof v); }
  void F64(double& v) { Take(&v, sizeof v); }
  void Bool(bool& v) {
    u8 raw = 0;
    if (Take(&raw, sizeof raw)) v = raw != 0;
  }
  void Str(std::string& s);
  template <typename E>
  void Enum(E& v, E max, const char* what) {
    u8 raw = 0;
    if (!Take(&raw, sizeof raw)) return;
    if (raw > static_cast<u8>(max)) {
      return Fail(StrFormat("bad %s tag %u", what, raw));
    }
    v = static_cast<E>(raw);
  }
  // A declared count must pass the semantic cap and fit in the bytes left
  // at `min_record_bytes` each, so a flipped length field fails here
  // instead of driving a huge allocation or loop. 0 after any error.
  i64 Count(i64 cap, i64 min_record_bytes, const char* what);
  template <typename T>
  void List(std::vector<T>& items, i64 cap, const char* what) {
    items.resize(static_cast<size_t>(Count(cap, MinRecordBytes<T>(), what)));
    for (T& item : items) {
      if (!ok()) return;
      VisitFields(*this, item);
    }
  }
  template <typename T>
  void Optional(std::optional<T>& v) {
    bool present = false;
    Bool(present);
    if (present) VisitFields(*this, v.emplace());
  }
  // The u64 length must equal `expect`, the size of `dst`.
  void Bytes(u8* dst, i64 expect);
  void Raw(void* dst, size_t size) { Take(dst, size); }
  // False, with the truncation error latched, unless `size` bytes are left:
  // lets a caller check a declared payload before allocating room for it.
  bool Has(size_t size);

  bool ok() const { return status_.ok(); }
  // Latches "<context>: <what>" unless an error is already latched.
  void Fail(const std::string& what);
  // Latches `status` as is (errors from validating builders).
  void Fail(Status status);
  // The latched error, else an error if bytes are left unread.
  Status Finish();

 private:
  bool Take(void* dst, size_t size);

  std::span<const u8> data_;
  size_t pos_ = 0;
  std::string context_;
  Status status_;
};

// The tensor-type record: dtype tag, u8 rank, i64 dims. Decoding caps
// rank at 8, each dim at 2^24 and the element count at 2^26, so a corrupt
// file can never demand an absurd allocation.
void EncodeTensorType(Encoder& e, DType dtype, const Shape& shape);
TensorType DecodeTensorType(Decoder& d);

}  // namespace htvm::vm
