#include "vm/codec.hpp"

#include <cstring>

namespace htvm::vm {
namespace {

constexpr i64 kMaxStringBytes = i64{1} << 20;
constexpr i64 kMaxRank = 8;
constexpr i64 kMaxDim = i64{1} << 24;
constexpr i64 kMaxElements = i64{1} << 26;

}  // namespace

bool Decoder::Has(size_t size) {
  if (!ok()) return false;
  if (size > data_.size() - pos_) {
    Fail(Status::InvalidArgument(StrFormat(
        "%s truncated at byte %zu", context_.c_str(), pos_)));
    return false;
  }
  return true;
}

bool Decoder::Take(void* dst, size_t size) {
  if (!Has(size)) return false;
  // An empty tensor's dst may be null, which memcpy must not see.
  if (size > 0) std::memcpy(dst, data_.data() + pos_, size);
  pos_ += size;
  return true;
}

void Decoder::Str(std::string& s) {
  u32 n = 0;
  U32(n);
  if (static_cast<i64>(n) > kMaxStringBytes) {
    return Fail("string length out of range");
  }
  s.resize(n);
  Take(s.data(), n);
}

i64 Decoder::Count(i64 cap, i64 min_record_bytes, const char* what) {
  u32 raw = 0;
  U32(raw);
  const i64 n = static_cast<i64>(raw);
  if (n > cap || n > static_cast<i64>(data_.size() - pos_) / min_record_bytes) {
    Fail(StrFormat("%s count %lld out of range", what,
                   static_cast<long long>(n)));
  }
  return ok() ? n : 0;
}

void Decoder::Bytes(u8* dst, i64 expect) {
  u64 n = 0;
  Take(&n, sizeof n);
  if (ok() && static_cast<i64>(n) != expect) {
    return Fail(StrFormat("payload of %llu bytes, expected %lld",
                          static_cast<unsigned long long>(n),
                          static_cast<long long>(expect)));
  }
  Take(dst, static_cast<size_t>(n));
}

void Decoder::Fail(const std::string& what) {
  Fail(Status::InvalidArgument(context_ + ": " + what));
}

void Decoder::Fail(Status status) {
  if (ok()) status_ = std::move(status);
}

Status Decoder::Finish() {
  if (ok() && pos_ != data_.size()) {
    Fail(StrFormat("%zu trailing bytes", data_.size() - pos_));
  }
  return status_;
}

void EncodeTensorType(Encoder& e, DType dtype, const Shape& shape) {
  e.Enum(dtype, kMaxDType, "dtype");
  e.U8(static_cast<u8>(shape.rank()));
  for (i64 d : shape.dims()) e.I64(d);
}

TensorType DecodeTensorType(Decoder& d) {
  TensorType type;
  d.Enum(type.dtype, kMaxDType, "dtype");
  u8 rank = 0;
  d.U8(rank);
  if (rank > kMaxRank) {
    d.Fail("shape rank > 8");
    return type;
  }
  std::vector<i64> dims(rank);
  i64 elems = 1;
  for (i64& dim : dims) {
    d.I64(dim);
    // No kernel accepts an empty extent (graphs reject them at
    // construction), so a 0 dim is as malformed as a negative one.
    if (dim <= 0 || dim > kMaxDim) {
      d.Fail("dim out of range");
      return type;
    }
    // Guard the product too: eight 2^24 dims would overflow i64 in
    // NumElements and demand an absurd allocation.
    elems *= dim;
    if (elems > kMaxElements) {
      d.Fail("tensor element count out of range");
      return type;
    }
  }
  type.shape = Shape(std::move(dims));
  return type;
}

}  // namespace htvm::vm
