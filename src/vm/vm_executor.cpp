#include "vm/vm_executor.hpp"

#include <cstring>
#include <fstream>
#include <iterator>

#include "support/rng.hpp"
#include "vm/codec.hpp"

namespace htvm::vm {
namespace {

constexpr char kTensorMagic[8] = {'H', 'T', 'V', 'M', 'T', 'E', 'N', '1'};
constexpr i64 kMaxTensors = 256;

}  // namespace

std::vector<Tensor> SyntheticInputs(const compiler::Artifact& artifact,
                                    u64 seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (NodeId id : artifact.kernel_graph.inputs()) {
    const Node& n = artifact.kernel_graph.node(id);
    inputs.push_back(Tensor::Random(n.type.shape, n.type.dtype, rng));
  }
  return inputs;
}

Status SaveTensors(std::span<const Tensor> tensors, const std::string& path) {
  Encoder e;
  e.Raw(kTensorMagic, sizeof kTensorMagic);
  e.U32(static_cast<u32>(tensors.size()));
  for (const Tensor& t : tensors) {
    EncodeTensorType(e, t.dtype(), t.shape());
    e.Raw(t.raw(), static_cast<size_t>(t.SizeBytes()));
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open " + path);
  out.write(e.bytes().data(), static_cast<std::streamsize>(e.bytes().size()));
  if (!out.good()) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

Result<std::vector<Tensor>> LoadTensors(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open tensor file: " + path);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  if (bytes.size() < sizeof kTensorMagic ||
      std::memcmp(bytes.data(), kTensorMagic, sizeof kTensorMagic) != 0) {
    return Status::InvalidArgument("not an HTVM tensor file: " + path);
  }
  Decoder d(std::span<const u8>(reinterpret_cast<const u8*>(bytes.data()),
                                bytes.size())
                .subspan(sizeof kTensorMagic),
            "tensor file");
  static const i64 min_tensor_bytes = EncodedSize(
      [](Encoder& e) { EncodeTensorType(e, DType::kInt8, Shape{}); });
  const i64 count = d.Count(kMaxTensors, min_tensor_bytes, "tensor");
  std::vector<Tensor> tensors;
  for (i64 i = 0; i < count && d.ok(); ++i) {
    const TensorType type = DecodeTensorType(d);
    // A header may declare up to 2^26 elements: allocate only once the
    // file is known to hold the payload.
    const i64 size = type.shape.NumElements() * DTypeSizeBytes(type.dtype);
    if (!d.Has(static_cast<size_t>(size))) break;
    Tensor t(type.shape, type.dtype);
    d.Raw(t.raw(), static_cast<size_t>(size));
    tensors.push_back(std::move(t));
  }
  HTVM_RETURN_IF_ERROR(d.Finish());
  return tensors;
}

}  // namespace htvm::vm
