#include "vm/hab.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/string_utils.hpp"
#include "vm/codec.hpp"

namespace htvm::vm {
namespace {

// Sanity caps: a corrupted length field must produce a typed error, never a
// multi-gigabyte allocation.
constexpr i64 kMaxNodes = i64{1} << 20;
constexpr i64 kMaxKernels = i64{1} << 16;
constexpr i64 kMaxSteps = i64{1} << 20;
constexpr i64 kMaxBuffers = i64{1} << 20;
constexpr i64 kMaxPasses = 1024;
constexpr i64 kMaxDispatch = i64{1} << 20;
constexpr i64 kMaxAttrs = 64;
constexpr i64 kMaxInputs = 64;
constexpr i64 kMaxIntVec = i64{1} << 16;
constexpr u32 kMaxSections = 64;

// --- header / section table ------------------------------------------------

u32 LoadU32(const u8* p) {
  u32 v;
  std::memcpy(&v, p, 4);
  return v;
}

u64 LoadU64(const u8* p) {
  u64 v;
  std::memcpy(&v, p, 8);
  return v;
}

u32 ByteSwap32(u32 v) {
  return ((v & 0xffu) << 24) | ((v & 0xff00u) << 8) | ((v >> 8) & 0xff00u) |
         (v >> 24);
}

}  // namespace

// --- record layouts ----------------------------------------------------------
//
// One field function per flat record defines its bytes in both directions
// (vm/codec.hpp). They sit outside the anonymous namespace so the codec's
// List and Optional find them by argument-dependent lookup. The
// hw::DianaConfig and dory::TilerOptions walks live with those records.

template <typename Io, RecordOf<HabMeta> R>
void VisitFields(Io& io, R& meta) {
  io.Str(meta.model_name);
  io.Str(meta.producer);
}

template <typename Io, RecordOf<tvmgen::BinarySizeReport> R>
void VisitFields(Io& io, R& s) {
  io.I64(s.runtime_bytes);
  io.I64(s.code_bytes);
  io.I64(s.weight_bytes);
}

template <typename Io, RecordOf<compiler::BufferAssignment> R>
void VisitFields(Io& io, R& b) {
  io.I32(b.value);
  io.I64(b.offset);
  io.I64(b.size);
  io.I64(b.def_time);
  io.I64(b.last_use_time);
}

template <typename Io, RecordOf<compiler::MemoryPlan> R>
void VisitFields(Io& io, R& plan) {
  io.I64(plan.arena_bytes);
  io.I64(plan.total_l2_bytes);
  io.Bool(plan.fits);
  io.Bool(plan.reuse);
  io.List(plan.buffers, kMaxBuffers, "buffer");
}

template <typename Io, RecordOf<compiler::PassStat> R>
void VisitFields(Io& io, R& p) {
  io.Str(p.name);
  io.I64(p.wall_ns);
  io.I64(p.nodes_before);
  io.I64(p.nodes_after);
  io.Bool(p.skipped);
}

template <typename Io, RecordOf<compiler::DispatchDecision> R>
void VisitFields(Io& io, R& d) {
  io.I32(d.root);
  io.Str(d.pattern);
  io.Str(d.layer);
  io.Str(d.target);
  io.Str(d.reason);
}

template <typename Io, RecordOf<dory::AccelLayerSpec> R>
void VisitFields(Io& io, R& sp) {
  io.Enum(sp.kind, dory::LayerKind::kMatmul, "layer kind");
  io.I64(sp.c);
  io.I64(sp.iy);
  io.I64(sp.ix);
  io.I64(sp.k);
  io.I64(sp.oy);
  io.I64(sp.ox);
  io.I64(sp.kh);
  io.I64(sp.kw);
  io.I64(sp.sy);
  io.I64(sp.sx);
  io.I64(sp.pad_t);
  io.I64(sp.pad_l);
  io.I64(sp.pad_b);
  io.I64(sp.pad_r);
  io.Enum(sp.weight_dtype, kMaxDType, "dtype");
  io.I64(sp.requant.shift);
  io.Bool(sp.requant.relu);
  io.List(sp.requant.channel_shifts, kMaxNodes, "channel-shift");
}

template <typename Io, RecordOf<dory::TileSolution> R>
void VisitFields(Io& io, R& so) {
  io.I64(so.c_t);
  io.I64(so.k_t);
  io.I64(so.oy_t);
  io.I64(so.ox_t);
  io.I64(so.iy_t);
  io.I64(so.ix_t);
  io.I64(so.n_c);
  io.I64(so.n_k);
  io.I64(so.n_y);
  io.I64(so.n_x);
  io.Bool(so.needs_tiling);
  io.Bool(so.psum);
  io.F64(so.objective);
  io.I64(so.l1_bytes);
}

template <typename Io, RecordOf<dory::TileStep> R>
void VisitFields(Io& io, R& st) {
  io.I64(st.c0);
  io.I64(st.k0);
  io.I64(st.y0);
  io.I64(st.x0);
  io.I64(st.c_t);
  io.I64(st.k_t);
  io.I64(st.oy_t);
  io.I64(st.ox_t);
  io.I64(st.iy_t);
  io.I64(st.ix_t);
  io.Bool(st.first_c);
  io.Bool(st.last_c);
  io.I64(st.compute_cycles);
  io.I64(st.in_dma_cycles);
  io.I64(st.out_dma_cycles);
  io.I64(st.weight_dma_cycles);
  io.I64(st.setup_cycles);
}

template <typename Io, RecordOf<dory::AccelSchedule> R>
void VisitFields(Io& io, R& s) {
  io.Enum(s.target, dory::AccelTarget::kAnalog, "schedule target");
  io.I64(s.macs);
  io.I64(s.compute_cycles);
  io.I64(s.weight_dma_cycles);
  io.I64(s.act_dma_cycles);
  io.I64(s.exposed_act_cycles);
  io.I64(s.overhead_cycles);
  io.I64(s.peak_cycles);
  io.I64(s.full_cycles);
  VisitFields(io, s.spec);
  VisitFields(io, s.solution);
  VisitFields(io, s.options);
  io.List(s.steps, kMaxSteps, "step");
}

template <typename Io, RecordOf<hw::KernelPerf> R>
void VisitFields(Io& io, R& p) {
  io.Str(p.name);
  io.Str(p.target);
  io.I64(p.macs);
  io.I64(p.peak_cycles);
  io.I64(p.full_cycles);
  io.I64(p.compute_cycles);
  io.I64(p.weight_dma_cycles);
  io.I64(p.act_dma_cycles);
  io.I64(p.overhead_cycles);
  io.I64(p.tiles);
}

template <typename Io, RecordOf<compiler::CompiledKernel> R>
void VisitFields(Io& io, R& k) {
  io.Str(k.name);
  io.Str(k.target);
  io.I32(k.node);
  io.I64(k.code_bytes);
  io.I64(k.weight_bytes);
  VisitFields(io, k.perf);
  io.Optional(k.schedule);
}

// --- kernel graph ------------------------------------------------------------
//
// Hand-written in both directions: decoding builds through Graph's
// validating API, so a corrupt node fails with a status instead of an
// invariant abort.

void VisitFields(Encoder& e, const Graph& g);

namespace {

void EncodeAttr(Encoder& e, const std::string& key, const AttrValue& value) {
  e.Str(key);
  e.U8(static_cast<u8>(value.index()));
  if (const bool* b = std::get_if<bool>(&value)) {
    e.Bool(*b);
  } else if (const i64* i = std::get_if<i64>(&value)) {
    e.I64(*i);
  } else if (const double* d = std::get_if<double>(&value)) {
    e.F64(*d);
  } else if (const std::string* s = std::get_if<std::string>(&value)) {
    e.Str(*s);
  } else {
    e.List(std::get<std::vector<i64>>(value), kMaxIntVec, "int-vec");
  }
}

void EncodeNode(Encoder& e, const Node& n) {
  e.Enum(n.kind, NodeKind::kComposite, "node kind");
  switch (n.kind) {
    case NodeKind::kInput:
      e.Str(n.name);
      EncodeTensorType(e, n.type.dtype, n.type.shape);
      break;
    case NodeKind::kConstant:
      e.Str(n.name);
      EncodeTensorType(e, n.value.dtype(), n.value.shape());
      e.Bytes(n.value.raw(), n.value.SizeBytes());
      break;
    case NodeKind::kOp:
    case NodeKind::kComposite:
      e.Str(n.op);
      e.Str(n.name);
      e.List(n.inputs, kMaxInputs, "input");
      e.U32(static_cast<u32>(n.attrs.values().size()));
      for (const auto& [key, value] : n.attrs.values()) {
        EncodeAttr(e, key, value);
      }
      if (n.kind == NodeKind::kComposite) VisitFields(e, *n.body);
      break;
  }
}

AttrMap DecodeAttrs(Decoder& d) {
  // The smallest attr: an empty key and a bool value.
  static const i64 min_attr_bytes = EncodedSize(
      [](Encoder& e) { EncodeAttr(e, "", AttrValue{}); });
  AttrMap attrs;
  const i64 n = d.Count(kMaxAttrs, min_attr_bytes, "attr");
  for (i64 i = 0; i < n && d.ok(); ++i) {
    std::string key;
    u8 tag = 0;
    d.Str(key);
    d.U8(tag);
    AttrValue value;
    switch (tag) {
      case 0:
        d.Bool(value.emplace<bool>());
        break;
      case 1:
        d.I64(value.emplace<i64>());
        break;
      case 2:
        d.F64(value.emplace<double>());
        break;
      case 3:
        d.Str(value.emplace<std::string>());
        break;
      case 4:
        d.List(value.emplace<std::vector<i64>>(), kMaxIntVec, "int-vec");
        break;
      default:
        d.Fail(StrFormat("bad attr tag %u", tag));
    }
    if (d.ok()) attrs.Set(key, std::move(value));
  }
  return attrs;
}

// Node ids must name an earlier node.
std::vector<NodeId> DecodeIds(Decoder& d, i64 cap, i64 num_nodes,
                              const char* what) {
  std::vector<NodeId> ids;
  d.List(ids, cap, what);
  for (NodeId id : ids) {
    if (id < 0 || id >= num_nodes) {
      d.Fail(StrFormat("%s id %d out of range", what, id));
    }
  }
  return ids;
}

void DecodeGraph(Decoder& d, Graph& g, bool allow_composite) {
  // The smallest node: an input (the smallest kind) with an empty name and
  // a rank-0 shape.
  static const i64 min_node_bytes = EncodedSize([](Encoder& e) {
    Node input;
    input.kind = NodeKind::kInput;
    EncodeNode(e, input);
  });
  const i64 num_nodes = d.Count(kMaxNodes, min_node_bytes, "node");
  for (i64 i = 0; i < num_nodes && d.ok(); ++i) {
    NodeKind kind = NodeKind::kInput;
    std::string name;
    d.Enum(kind, NodeKind::kComposite, "node kind");
    if (kind == NodeKind::kInput || kind == NodeKind::kConstant) {
      d.Str(name);
      const TensorType type = DecodeTensorType(d);
      if (!d.ok()) return;
      if (kind == NodeKind::kInput) {
        g.AddInput(name, type);
        continue;
      }
      Tensor t(type.shape, type.dtype);
      d.Bytes(t.raw(), t.SizeBytes());
      if (d.ok()) g.AddConstant(std::move(t), name);
      continue;
    }
    if (kind == NodeKind::kComposite && !allow_composite) {
      return d.Fail("nested composite in body");
    }
    std::string op;
    d.Str(op);
    d.Str(name);
    std::vector<NodeId> inputs = DecodeIds(
        d, kMaxInputs, g.NumNodes(),
        kind == NodeKind::kOp ? "op input" : "composite input");
    AttrMap attrs = DecodeAttrs(d);
    if (kind == NodeKind::kOp) {
      if (!d.ok()) return;
      auto id = g.TryAddOp(op, std::move(inputs), std::move(attrs), name);
      if (!id.ok()) d.Fail(id.status());
      continue;
    }
    auto body = std::make_shared<Graph>();
    DecodeGraph(d, *body, /*allow_composite=*/false);
    if (!d.ok()) return;
    // AddComposite asserts these invariants; a corrupt file must fail with
    // a status instead.
    if (body->outputs().size() != 1) {
      return d.Fail("composite body output count != 1");
    }
    if (body->inputs().size() != inputs.size()) {
      return d.Fail("composite arity mismatch with body");
    }
    const NodeId id = g.AddComposite(op, std::move(inputs), std::move(body),
                                     std::move(attrs));
    g.mutable_node(id).name = name;
  }
  std::vector<NodeId> outputs =
      DecodeIds(d, kMaxNodes, g.NumNodes(), "output");
  if (!d.ok()) return;
  if (outputs.empty()) return d.Fail("empty output list");
  g.SetOutputs(std::move(outputs));
}

}  // namespace

void VisitFields(Encoder& e, const Graph& g) {
  e.U32(static_cast<u32>(g.NumNodes()));
  for (const Node& n : g.nodes()) EncodeNode(e, n);
  e.List(g.outputs(), kMaxNodes, "output");
}

void VisitFields(Decoder& d, Graph& g) {
  DecodeGraph(d, g, /*allow_composite=*/true);
  if (d.ok()) d.Fail(g.Validate());
}

// --- sections ----------------------------------------------------------------

// The fixed sections in file order: SerializeHab encodes a const artifact
// through this list and ParseHab decodes into a fresh one.
// `section(id, name, fields)` receives each section's field walk.
template <typename A, typename M, typename F>
void ForEachFixedSection(A& a, M& meta, F&& section) {
  section(HabSection::kMeta, "meta", [&](auto& io) { VisitFields(io, meta); });
  section(HabSection::kHwConfig, "hw-config",
          [&](auto& io) { VisitFields(io, a.hw_config); });
  section(HabSection::kSize, "size",
          [&](auto& io) { VisitFields(io, a.size); });
  section(HabSection::kMemPlan, "mem-plan",
          [&](auto& io) { VisitFields(io, a.memory_plan); });
  section(HabSection::kPasses, "passes",
          [&](auto& io) { io.List(a.pass_timeline, kMaxPasses, "pass"); });
  section(HabSection::kDispatch, "dispatch",
          [&](auto& io) { io.List(a.dispatch_log, kMaxDispatch, "decision"); });
  section(HabSection::kGraph, "graph",
          [&](auto& io) { VisitFields(io, a.kernel_graph); });
  section(HabSection::kKernels, "kernels",
          [&](auto& io) { io.List(a.kernels, kMaxKernels, "kernel"); });
}

u64 HabChecksum(const u8* data, size_t size) {
  // FNV-1a 64.
  u64 h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool LooksLikeHab(std::span<const u8> data) {
  return data.size() >= sizeof kHabMagic &&
         std::memcmp(data.data(), kHabMagic, sizeof kHabMagic) == 0;
}

bool LooksLikeHab(const std::string& data) {
  return LooksLikeHab(std::span<const u8>(
      reinterpret_cast<const u8*>(data.data()), data.size()));
}

std::string SerializeHabForDiff(const compiler::Artifact& artifact) {
  compiler::Artifact scrubbed = artifact;
  for (compiler::PassStat& p : scrubbed.pass_timeline) p.wall_ns = 0;
  return SerializeHab(scrubbed);
}

std::string SerializeHab(const compiler::Artifact& a, const HabMeta& meta) {
  struct Section {
    HabSection id;
    std::string payload;
  };
  std::vector<Section> sections;
  const auto add = [&](HabSection id, const char* /*name*/, auto&& fields) {
    Encoder e;
    fields(e);
    sections.push_back({id, e.bytes()});
  };
  ForEachFixedSection(a, meta, add);
  // kSoc only for non-default SoCs: keeps "diana" HABs byte-identical to
  // pre-SoC-family producers (and loadable by their readers, which skip
  // unknown section ids).
  if (a.soc_name != "diana") {
    add(HabSection::kSoc, "soc", [&](Encoder& e) { e.Str(a.soc_name); });
  }
  // kPlan only when a graph-level search actually produced a plan: the
  // heuristic path serializes byte-identically to pre-graph-search HABs.
  if (!a.plan.empty()) {
    add(HabSection::kPlan, "plan",
        [&](Encoder& e) { e.Str(a.plan.Serialize()); });
  }

  // Lay out payloads 8-byte aligned after header + section table.
  const size_t table_bytes = sections.size() * kHabSectionEntryBytes;
  u64 offset = kHabHeaderBytes + table_bytes;
  Encoder table;
  std::string payloads;
  for (const Section& s : sections) {
    offset = (offset + 7) & ~u64{7};
    while ((kHabHeaderBytes + table_bytes + payloads.size()) < offset) {
      payloads.push_back('\0');
    }
    table.U32(static_cast<u32>(s.id));
    table.U32(0);  // flags, reserved
    table.U64(offset);
    table.U64(s.payload.size());
    table.U64(HabChecksum(reinterpret_cast<const u8*>(s.payload.data()),
                          s.payload.size()));
    payloads += s.payload;
    offset += s.payload.size();
  }

  Encoder header;
  header.U64(LoadU64(reinterpret_cast<const u8*>(kHabMagic)));
  header.U32(kHabVersion);
  header.U32(kHabEndianTag);
  header.U32(kHabHeaderBytes);
  header.U32(static_cast<u32>(sections.size()));
  header.U64(offset);  // total file bytes
  std::string out = header.bytes();
  out.resize(kHabHeaderBytes, '\0');
  out += table.bytes();
  out += payloads;
  return out;
}

Result<ParsedHab> ParseHab(std::span<const u8> data) {
  if (data.size() < kHabHeaderBytes) {
    return Status::InvalidArgument(StrFormat(
        "hab: file of %zu bytes is shorter than the %u-byte header",
        data.size(), kHabHeaderBytes));
  }
  if (!LooksLikeHab(data)) {
    return Status::InvalidArgument(
        "hab: bad magic (not an htvm-artifact v2 binary)");
  }
  const u32 endian = LoadU32(data.data() + kHabEndianOffset);
  if (endian != kHabEndianTag) {
    if (ByteSwap32(endian) == kHabEndianTag) {
      return Status::Unsupported(
          "hab: foreign-endian file (produced on an opposite-endian host)");
    }
    return Status::InvalidArgument(
        StrFormat("hab: bad endianness tag 0x%08x", endian));
  }
  const u32 version = LoadU32(data.data() + kHabVersionOffset);
  if (version != kHabVersion) {
    return Status::Unsupported(StrFormat(
        "hab: unsupported format version %u (this runtime supports v%u)",
        version, kHabVersion));
  }
  const u32 header_bytes = LoadU32(data.data() + kHabHeaderBytesOffset);
  if (header_bytes != kHabHeaderBytes) {
    return Status::InvalidArgument(
        StrFormat("hab: bad header size %u", header_bytes));
  }
  const u32 section_count = LoadU32(data.data() + kHabSectionCountOffset);
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::InvalidArgument(
        StrFormat("hab: section count %u out of range", section_count));
  }
  const u64 file_bytes = LoadU64(data.data() + kHabFileBytesOffset);
  if (file_bytes != data.size()) {
    return Status::InvalidArgument(StrFormat(
        "hab: header declares %llu bytes but file has %zu (truncated?)",
        static_cast<unsigned long long>(file_bytes), data.size()));
  }
  const u64 table_end =
      u64{kHabHeaderBytes} + u64{section_count} * kHabSectionEntryBytes;
  if (table_end > data.size()) {
    return Status::InvalidArgument("hab: section table exceeds file size");
  }

  ParsedHab parsed;
  std::span<const u8> by_id[16];
  for (u32 i = 0; i < section_count; ++i) {
    const u8* e = data.data() + kHabHeaderBytes +
                  u64{i} * kHabSectionEntryBytes;
    HabSectionInfo info;
    info.id = LoadU32(e);
    const u64 offset = LoadU64(e + 8);
    const u64 bytes = LoadU64(e + 16);
    info.checksum = LoadU64(e + 24);
    if (offset > data.size() || bytes > data.size() - offset) {
      return Status::InvalidArgument(StrFormat(
          "hab: section %u spans [%llu, +%llu) outside the %zu-byte file",
          info.id, static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(bytes), data.size()));
    }
    info.offset = static_cast<i64>(offset);
    info.bytes = static_cast<i64>(bytes);
    const u8* payload = data.data() + offset;
    if (HabChecksum(payload, static_cast<size_t>(bytes)) != info.checksum) {
      return Status::InvalidArgument(
          StrFormat("hab: section %u checksum mismatch (corrupt file)",
                    info.id));
    }
    parsed.sections.push_back(info);
    // Unknown section ids are valid (additive extensions); known duplicates
    // are not.
    if (info.id < 16) {
      if (by_id[info.id].data() != nullptr) {
        return Status::InvalidArgument(
            StrFormat("hab: duplicate section %u", info.id));
      }
      by_id[info.id] = {payload, static_cast<size_t>(bytes)};
    }
  }

  // Decodes section `id` through `fields`, latching the first error into
  // `status`; false when the section is absent.
  Status status;
  const auto decode = [&](HabSection id, const char* name, auto&& fields) {
    const std::span<const u8> payload = by_id[static_cast<u32>(id)];
    if (payload.data() == nullptr) return false;
    if (status.ok()) {
      Decoder d(payload, StrFormat("hab %s section", name));
      fields(d);
      status = d.Finish();
    }
    return true;
  };
  const auto require = [&](HabSection id, const char* name, auto&& fields) {
    if (!decode(id, name, fields) && status.ok()) {
      status = Status::InvalidArgument(
          StrFormat("hab: missing section %u", static_cast<u32>(id)));
    }
  };
  compiler::Artifact& a = parsed.artifact;
  ForEachFixedSection(a, parsed.meta, require);
  std::string soc_name, plan_text;
  const bool has_soc = decode(HabSection::kSoc, "soc",
                              [&](Decoder& d) { d.Str(soc_name); });
  const bool has_plan = decode(HabSection::kPlan, "plan",
                               [&](Decoder& d) { d.Str(plan_text); });
  HTVM_RETURN_IF_ERROR(status);
  for (const compiler::CompiledKernel& k : a.kernels) {
    if (k.node < 0 || k.node >= a.kernel_graph.NumNodes()) {
      return Status::InvalidArgument(
          "hab kernels section: kernel node id out of range");
    }
  }
  // kSoc is optional: absent in every "diana" HAB (and everything produced
  // before SoC families existed), where the member default applies. An
  // explicit "diana" is non-canonical — two encodings of one artifact would
  // break content addressing — so it is rejected like an empty name.
  if (has_soc) {
    if (soc_name.empty() || soc_name == "diana") {
      return Status::InvalidArgument(
          "hab: soc section must name a non-default SoC");
    }
    a.soc_name = soc_name;
  }
  // kPlan is optional: absent for heuristic compiles and everything
  // produced before graph-level search existed. When present, the plan
  // must name the artifact's own SoC — a plan searched for SoC A encodes
  // A's fusion legality and dispatch capabilities, so replaying it against
  // another SoC would be silently wrong. Refuse with a typed error.
  if (has_plan) {
    HTVM_ASSIGN_OR_RETURN(plan, dory::GraphPlan::Deserialize(plan_text));
    if (plan.soc_name != a.soc_name) {
      return Status::InvalidArgument(StrFormat(
          "hab: plan section was searched for soc \"%s\" but the artifact "
          "targets soc \"%s\" — refusing to replay a cross-SoC plan",
          plan.soc_name.c_str(), a.soc_name.c_str()));
    }
    a.plan = std::move(plan);
  }
  return parsed;
}

Status SaveHab(const compiler::Artifact& artifact, const HabMeta& meta,
               const std::string& path) {
  // Atomic publish: concurrent writers race on the same path; rename makes
  // readers see nothing or a complete file.
  const std::string tmp =
      path + StrFormat(".tmp.%d", static_cast<int>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return Status::Internal("cannot open " + tmp);
    const std::string bytes = SerializeHab(artifact, meta);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return Status::Internal("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace htvm::vm
