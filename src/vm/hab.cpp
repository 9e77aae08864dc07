#include "vm/hab.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "support/string_utils.hpp"

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
constexpr i64 kMaxStringBytes = i64{1} << 20;
constexpr u32 kMaxSections = 64;

// --- flat little-endian encoding ------------------------------------------

class Writer {
 public:
  void U8(u8 v) { out_.push_back(static_cast<char>(v)); }
  void U32(u32 v) { Raw(&v, sizeof v); }
  void U64(u64 v) { Raw(&v, sizeof v); }
  void I64(i64 v) { U64(static_cast<u64>(v)); }
  void I32(i32 v) { U32(static_cast<u32>(v)); }
  void F64(double v) { U64(std::bit_cast<u64>(v)); }
  void Str(const std::string& s) {
    U32(static_cast<u32>(s.size()));
    Raw(s.data(), s.size());
  }
  void Bytes(const u8* data, i64 size) {
    U64(static_cast<u64>(size));
    Raw(data, static_cast<size_t>(size));
  }
  const std::string& str() const { return out_; }

 private:
  void Raw(const void* data, size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  std::string out_;
};

// Bounds-checked reader over one section payload. Every getter fails with a
// typed status on overrun instead of reading past the mapped range.
class Reader {
 public:
  Reader(const u8* data, size_t size, const char* section)
      : data_(data), size_(size), section_(section) {}

  Result<u8> U8() {
    HTVM_RETURN_IF_ERROR(Need(1));
    return data_[pos_++];
  }
  Result<u32> U32() {
    HTVM_RETURN_IF_ERROR(Need(4));
    u32 v;
    std::memcpy(&v, data_ + pos_, 4);
    pos_ += 4;
    return v;
  }
  Result<u64> U64() {
    HTVM_RETURN_IF_ERROR(Need(8));
    u64 v;
    std::memcpy(&v, data_ + pos_, 8);
    pos_ += 8;
    return v;
  }
  Result<i64> I64() {
    HTVM_ASSIGN_OR_RETURN(v, U64());
    return static_cast<i64>(v);
  }
  Result<i32> I32() {
    HTVM_ASSIGN_OR_RETURN(v, U32());
    return static_cast<i32>(v);
  }
  Result<double> F64() {
    HTVM_ASSIGN_OR_RETURN(v, U64());
    return std::bit_cast<double>(v);
  }
  Result<bool> Bool() {
    HTVM_ASSIGN_OR_RETURN(v, U8());
    return v != 0;
  }
  Result<std::string> Str() {
    HTVM_ASSIGN_OR_RETURN(n, U32());
    if (static_cast<i64>(n) > kMaxStringBytes) {
      return Overrun("string length");
    }
    HTVM_RETURN_IF_ERROR(Need(n));
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  // A declared count of fixed-size records must fit in the bytes left, on
  // top of the semantic cap — a flipped length field fails here instead of
  // driving a huge loop.
  Result<i64> Count(i64 cap, i64 min_record_bytes, const char* what) {
    HTVM_ASSIGN_OR_RETURN(raw, U32());
    const i64 n = static_cast<i64>(raw);
    if (n > cap || (min_record_bytes > 0 &&
                    n > static_cast<i64>(size_ - pos_) / min_record_bytes)) {
      return Status::InvalidArgument(StrFormat(
          "hab %s section: %s count %lld out of range", section_, what,
          static_cast<long long>(n)));
    }
    return n;
  }
  Status CopyBytes(u8* dst, i64 expect) {
    HTVM_ASSIGN_OR_RETURN(n, U64());
    if (static_cast<i64>(n) != expect) {
      return Status::InvalidArgument(StrFormat(
          "hab %s section: payload of %llu bytes, expected %lld", section_,
          static_cast<unsigned long long>(n), static_cast<long long>(expect)));
    }
    HTVM_RETURN_IF_ERROR(Need(n));
    std::memcpy(dst, data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return Status::Ok();
  }
  Status ExpectEnd() {
    if (pos_ != size_) {
      return Status::InvalidArgument(
          StrFormat("hab %s section: %zu trailing bytes", section_,
                    size_ - pos_));
    }
    return Status::Ok();
  }

 private:
  Status Need(u64 bytes) {
    if (bytes > size_ - pos_) {
      return Status::InvalidArgument(
          StrFormat("hab %s section truncated at byte %zu", section_, pos_));
    }
    return Status::Ok();
  }
  Status Overrun(const char* what) {
    return Status::InvalidArgument(
        StrFormat("hab %s section: %s out of range", section_, what));
  }

  const u8* data_;
  size_t size_;
  size_t pos_ = 0;
  const char* section_;
};

// --- section writers -------------------------------------------------------

void WriteMeta(Writer& w, const HabMeta& meta) {
  w.Str(meta.model_name);
  w.Str(meta.producer);
}

void WriteHwConfig(Writer& w, const hw::DianaConfig& hw) {
  w.I64(hw.l1_bytes);
  w.I64(hw.l2_bytes);
  w.F64(hw.freq_mhz);
  w.I64(hw.runtime_call_overhead);
  w.I64(hw.dma.setup_cycles);
  w.I64(hw.dma.bytes_per_cycle);
  w.I64(hw.dma.row_setup_cycles);
  w.I64(hw.digital.pe_rows);
  w.I64(hw.digital.pe_cols);
  w.I64(hw.digital.weight_mem_bytes);
  w.I64(hw.digital.dw_mac_num);
  w.I64(hw.digital.dw_mac_den);
  w.I64(hw.digital.tile_setup_cycles);
  w.I64(hw.digital.post_simd_lanes);
  w.F64(hw.digital.dw_marshal_cycles_per_elem);
  w.I64(hw.analog.array_rows);
  w.I64(hw.analog.array_cols);
  w.I64(hw.analog.weight_mem_bytes);
  w.I64(hw.analog.layer_setup_cycles);
  w.I64(hw.analog.row_write_cycles);
  w.I64(hw.analog.cycles_per_pixel);
  w.I64(hw.analog.tile_setup_cycles);
  w.I64(hw.analog.input_bits);
  w.F64(hw.cpu.conv_cycles_per_mac);
  w.F64(hw.cpu.dwconv_cycles_per_mac);
  w.F64(hw.cpu.dense_cycles_per_mac);
  w.F64(hw.cpu.elemwise_cycles_per_elem);
  w.F64(hw.cpu.pool_cycles_per_elem);
  w.F64(hw.cpu.softmax_cycles_per_elem);
  w.F64(hw.cpu.requant_cycles_per_elem);
  w.I64(hw.cpu.kernel_overhead_cycles);
  w.F64(hw.cpu.tuned_library_speedup);
}

void WriteSize(Writer& w, const tvmgen::BinarySizeReport& s) {
  w.I64(s.runtime_bytes);
  w.I64(s.code_bytes);
  w.I64(s.weight_bytes);
}

void WriteMemPlan(Writer& w, const compiler::MemoryPlan& plan) {
  w.I64(plan.arena_bytes);
  w.I64(plan.total_l2_bytes);
  w.U8(plan.fits ? 1 : 0);
  w.U8(plan.reuse ? 1 : 0);
  w.U32(static_cast<u32>(plan.buffers.size()));
  for (const compiler::BufferAssignment& b : plan.buffers) {
    w.I32(b.value);
    w.I64(b.offset);
    w.I64(b.size);
    w.I64(b.def_time);
    w.I64(b.last_use_time);
  }
}

void WritePasses(Writer& w, const compiler::PassTimeline& timeline) {
  w.U32(static_cast<u32>(timeline.size()));
  for (const compiler::PassStat& p : timeline) {
    w.Str(p.name);
    w.I64(p.wall_ns);
    w.I64(p.nodes_before);
    w.I64(p.nodes_after);
    w.U8(p.skipped ? 1 : 0);
  }
}

void WriteDispatch(Writer& w, const compiler::DispatchLog& log) {
  w.U32(static_cast<u32>(log.size()));
  for (const compiler::DispatchDecision& d : log) {
    w.I32(d.root);
    w.Str(d.pattern);
    w.Str(d.layer);
    w.Str(d.target);
    w.Str(d.reason);
  }
}

void WriteShape(Writer& w, const Shape& shape) {
  w.U8(static_cast<u8>(shape.rank()));
  for (i64 d : shape.dims()) w.I64(d);
}

void WriteAttrs(Writer& w, const AttrMap& attrs) {
  w.U32(static_cast<u32>(attrs.values().size()));
  for (const auto& [key, value] : attrs.values()) {
    w.Str(key);
    w.U8(static_cast<u8>(value.index()));
    if (const bool* b = std::get_if<bool>(&value)) {
      w.U8(*b ? 1 : 0);
    } else if (const i64* i = std::get_if<i64>(&value)) {
      w.I64(*i);
    } else if (const double* d = std::get_if<double>(&value)) {
      w.F64(*d);
    } else if (const std::string* s = std::get_if<std::string>(&value)) {
      w.Str(*s);
    } else {
      const auto& vec = std::get<std::vector<i64>>(value);
      w.U32(static_cast<u32>(vec.size()));
      for (i64 i : vec) w.I64(i);
    }
  }
}

void WriteGraph(Writer& w, const Graph& g) {
  w.U32(static_cast<u32>(g.NumNodes()));
  for (const Node& n : g.nodes()) {
    w.U8(static_cast<u8>(n.kind));
    switch (n.kind) {
      case NodeKind::kInput:
        w.Str(n.name);
        w.U8(static_cast<u8>(n.type.dtype));
        WriteShape(w, n.type.shape);
        break;
      case NodeKind::kConstant:
        w.Str(n.name);
        w.U8(static_cast<u8>(n.value.dtype()));
        WriteShape(w, n.value.shape());
        w.Bytes(n.value.raw(), n.value.SizeBytes());
        break;
      case NodeKind::kOp:
      case NodeKind::kComposite:
        w.Str(n.op);
        w.Str(n.name);
        w.U32(static_cast<u32>(n.inputs.size()));
        for (NodeId in : n.inputs) w.I32(in);
        WriteAttrs(w, n.attrs);
        if (n.kind == NodeKind::kComposite) WriteGraph(w, *n.body);
        break;
    }
  }
  w.U32(static_cast<u32>(g.outputs().size()));
  for (NodeId id : g.outputs()) w.I32(id);
}

void WriteSchedule(Writer& w, const dory::AccelSchedule& s) {
  w.U8(s.target == dory::AccelTarget::kAnalog ? 1 : 0);
  w.I64(s.macs);
  w.I64(s.compute_cycles);
  w.I64(s.weight_dma_cycles);
  w.I64(s.act_dma_cycles);
  w.I64(s.exposed_act_cycles);
  w.I64(s.overhead_cycles);
  w.I64(s.peak_cycles);
  w.I64(s.full_cycles);
  const dory::AccelLayerSpec& sp = s.spec;
  w.U8(static_cast<u8>(sp.kind));
  w.I64(sp.c);
  w.I64(sp.iy);
  w.I64(sp.ix);
  w.I64(sp.k);
  w.I64(sp.oy);
  w.I64(sp.ox);
  w.I64(sp.kh);
  w.I64(sp.kw);
  w.I64(sp.sy);
  w.I64(sp.sx);
  w.I64(sp.pad_t);
  w.I64(sp.pad_l);
  w.I64(sp.pad_b);
  w.I64(sp.pad_r);
  w.U8(static_cast<u8>(sp.weight_dtype));
  w.I64(sp.requant.shift);
  w.U8(sp.requant.relu ? 1 : 0);
  w.U32(static_cast<u32>(sp.requant.channel_shifts.size()));
  for (i64 cs : sp.requant.channel_shifts) w.I64(cs);
  const dory::TileSolution& so = s.solution;
  w.I64(so.c_t);
  w.I64(so.k_t);
  w.I64(so.oy_t);
  w.I64(so.ox_t);
  w.I64(so.iy_t);
  w.I64(so.ix_t);
  w.I64(so.n_c);
  w.I64(so.n_k);
  w.I64(so.n_y);
  w.I64(so.n_x);
  w.U8(so.needs_tiling ? 1 : 0);
  w.U8(so.psum ? 1 : 0);
  w.F64(so.objective);
  w.I64(so.l1_bytes);
  const dory::TilerOptions& t = s.options;
  w.F64(t.alpha);
  w.F64(t.beta_pe);
  w.F64(t.beta_dma);
  w.U8(t.enable_pe_heuristics ? 1 : 0);
  w.U8(t.enable_dma_heuristic ? 1 : 0);
  w.U8(t.double_buffer ? 1 : 0);
  w.I64(t.l1_budget_bytes);
  w.U32(static_cast<u32>(s.steps.size()));
  for (const dory::TileStep& st : s.steps) {
    w.I64(st.c0);
    w.I64(st.k0);
    w.I64(st.y0);
    w.I64(st.x0);
    w.I64(st.c_t);
    w.I64(st.k_t);
    w.I64(st.oy_t);
    w.I64(st.ox_t);
    w.I64(st.iy_t);
    w.I64(st.ix_t);
    w.U8(st.first_c ? 1 : 0);
    w.U8(st.last_c ? 1 : 0);
    w.I64(st.compute_cycles);
    w.I64(st.in_dma_cycles);
    w.I64(st.out_dma_cycles);
    w.I64(st.weight_dma_cycles);
    w.I64(st.setup_cycles);
  }
}

void WriteKernels(Writer& w, const std::vector<compiler::CompiledKernel>& ks) {
  w.U32(static_cast<u32>(ks.size()));
  for (const compiler::CompiledKernel& k : ks) {
    w.Str(k.name);
    w.Str(k.target);
    w.I32(k.node);
    w.I64(k.code_bytes);
    w.I64(k.weight_bytes);
    w.Str(k.perf.name);
    w.Str(k.perf.target);
    w.I64(k.perf.macs);
    w.I64(k.perf.peak_cycles);
    w.I64(k.perf.full_cycles);
    w.I64(k.perf.compute_cycles);
    w.I64(k.perf.weight_dma_cycles);
    w.I64(k.perf.act_dma_cycles);
    w.I64(k.perf.overhead_cycles);
    w.I64(k.perf.tiles);
    w.U8(k.schedule.has_value() ? 1 : 0);
    if (k.schedule.has_value()) WriteSchedule(w, *k.schedule);
  }
}

// --- section readers -------------------------------------------------------

Status ReadMeta(Reader& r, HabMeta& meta) {
  HTVM_ASSIGN_OR_RETURN(model, r.Str());
  HTVM_ASSIGN_OR_RETURN(producer, r.Str());
  meta.model_name = model;
  meta.producer = producer;
  return r.ExpectEnd();
}

Status ReadHwConfig(Reader& r, hw::DianaConfig& hw) {
  HTVM_ASSIGN_OR_RETURN(l1, r.I64());
  HTVM_ASSIGN_OR_RETURN(l2, r.I64());
  HTVM_ASSIGN_OR_RETURN(freq, r.F64());
  HTVM_ASSIGN_OR_RETURN(call_overhead, r.I64());
  hw.l1_bytes = l1;
  hw.l2_bytes = l2;
  hw.freq_mhz = freq;
  hw.runtime_call_overhead = call_overhead;
  HTVM_ASSIGN_OR_RETURN(d0, r.I64());
  HTVM_ASSIGN_OR_RETURN(d1, r.I64());
  HTVM_ASSIGN_OR_RETURN(d2, r.I64());
  hw.dma.setup_cycles = d0;
  hw.dma.bytes_per_cycle = d1;
  hw.dma.row_setup_cycles = d2;
  HTVM_ASSIGN_OR_RETURN(g0, r.I64());
  HTVM_ASSIGN_OR_RETURN(g1, r.I64());
  HTVM_ASSIGN_OR_RETURN(g2, r.I64());
  HTVM_ASSIGN_OR_RETURN(g3, r.I64());
  HTVM_ASSIGN_OR_RETURN(g4, r.I64());
  HTVM_ASSIGN_OR_RETURN(g5, r.I64());
  HTVM_ASSIGN_OR_RETURN(g6, r.I64());
  HTVM_ASSIGN_OR_RETURN(g7, r.F64());
  hw.digital.pe_rows = g0;
  hw.digital.pe_cols = g1;
  hw.digital.weight_mem_bytes = g2;
  hw.digital.dw_mac_num = g3;
  hw.digital.dw_mac_den = g4;
  hw.digital.tile_setup_cycles = g5;
  hw.digital.post_simd_lanes = g6;
  hw.digital.dw_marshal_cycles_per_elem = g7;
  HTVM_ASSIGN_OR_RETURN(a0, r.I64());
  HTVM_ASSIGN_OR_RETURN(a1, r.I64());
  HTVM_ASSIGN_OR_RETURN(a2, r.I64());
  HTVM_ASSIGN_OR_RETURN(a3, r.I64());
  HTVM_ASSIGN_OR_RETURN(a4, r.I64());
  HTVM_ASSIGN_OR_RETURN(a5, r.I64());
  HTVM_ASSIGN_OR_RETURN(a6, r.I64());
  HTVM_ASSIGN_OR_RETURN(a7, r.I64());
  hw.analog.array_rows = a0;
  hw.analog.array_cols = a1;
  hw.analog.weight_mem_bytes = a2;
  hw.analog.layer_setup_cycles = a3;
  hw.analog.row_write_cycles = a4;
  hw.analog.cycles_per_pixel = a5;
  hw.analog.tile_setup_cycles = a6;
  hw.analog.input_bits = a7;
  HTVM_ASSIGN_OR_RETURN(c0, r.F64());
  HTVM_ASSIGN_OR_RETURN(c1, r.F64());
  HTVM_ASSIGN_OR_RETURN(c2, r.F64());
  HTVM_ASSIGN_OR_RETURN(c3, r.F64());
  HTVM_ASSIGN_OR_RETURN(c4, r.F64());
  HTVM_ASSIGN_OR_RETURN(c5, r.F64());
  HTVM_ASSIGN_OR_RETURN(c6, r.F64());
  HTVM_ASSIGN_OR_RETURN(c7, r.I64());
  HTVM_ASSIGN_OR_RETURN(c8, r.F64());
  hw.cpu.conv_cycles_per_mac = c0;
  hw.cpu.dwconv_cycles_per_mac = c1;
  hw.cpu.dense_cycles_per_mac = c2;
  hw.cpu.elemwise_cycles_per_elem = c3;
  hw.cpu.pool_cycles_per_elem = c4;
  hw.cpu.softmax_cycles_per_elem = c5;
  hw.cpu.requant_cycles_per_elem = c6;
  hw.cpu.kernel_overhead_cycles = c7;
  hw.cpu.tuned_library_speedup = c8;
  return r.ExpectEnd();
}

Status ReadSize(Reader& r, tvmgen::BinarySizeReport& s) {
  HTVM_ASSIGN_OR_RETURN(rt, r.I64());
  HTVM_ASSIGN_OR_RETURN(code, r.I64());
  HTVM_ASSIGN_OR_RETURN(weight, r.I64());
  s.runtime_bytes = rt;
  s.code_bytes = code;
  s.weight_bytes = weight;
  return r.ExpectEnd();
}

Status ReadMemPlan(Reader& r, compiler::MemoryPlan& plan) {
  HTVM_ASSIGN_OR_RETURN(arena, r.I64());
  HTVM_ASSIGN_OR_RETURN(total, r.I64());
  HTVM_ASSIGN_OR_RETURN(fits, r.Bool());
  HTVM_ASSIGN_OR_RETURN(reuse, r.Bool());
  plan.arena_bytes = arena;
  plan.total_l2_bytes = total;
  plan.fits = fits;
  plan.reuse = reuse;
  HTVM_ASSIGN_OR_RETURN(n, r.Count(kMaxBuffers, 36, "buffer"));
  plan.buffers.reserve(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    compiler::BufferAssignment b;
    HTVM_ASSIGN_OR_RETURN(value, r.I32());
    HTVM_ASSIGN_OR_RETURN(offset, r.I64());
    HTVM_ASSIGN_OR_RETURN(size, r.I64());
    HTVM_ASSIGN_OR_RETURN(def, r.I64());
    HTVM_ASSIGN_OR_RETURN(last, r.I64());
    b.value = value;
    b.offset = offset;
    b.size = size;
    b.def_time = def;
    b.last_use_time = last;
    plan.buffers.push_back(b);
  }
  return r.ExpectEnd();
}

Status ReadPasses(Reader& r, compiler::PassTimeline& timeline) {
  HTVM_ASSIGN_OR_RETURN(n, r.Count(kMaxPasses, 29, "pass"));
  timeline.reserve(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    compiler::PassStat p;
    HTVM_ASSIGN_OR_RETURN(name, r.Str());
    HTVM_ASSIGN_OR_RETURN(wall, r.I64());
    HTVM_ASSIGN_OR_RETURN(before, r.I64());
    HTVM_ASSIGN_OR_RETURN(after, r.I64());
    HTVM_ASSIGN_OR_RETURN(skipped, r.Bool());
    p.name = name;
    p.wall_ns = wall;
    p.nodes_before = before;
    p.nodes_after = after;
    p.skipped = skipped;
    timeline.push_back(std::move(p));
  }
  return r.ExpectEnd();
}

Status ReadDispatch(Reader& r, compiler::DispatchLog& log) {
  HTVM_ASSIGN_OR_RETURN(n, r.Count(kMaxDispatch, 20, "decision"));
  log.reserve(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    compiler::DispatchDecision d;
    HTVM_ASSIGN_OR_RETURN(root, r.I32());
    HTVM_ASSIGN_OR_RETURN(pattern, r.Str());
    HTVM_ASSIGN_OR_RETURN(layer, r.Str());
    HTVM_ASSIGN_OR_RETURN(target, r.Str());
    HTVM_ASSIGN_OR_RETURN(reason, r.Str());
    d.root = root;
    d.pattern = pattern;
    d.layer = layer;
    d.target = target;
    d.reason = reason;
    log.push_back(std::move(d));
  }
  return r.ExpectEnd();
}

Result<DType> ReadDType(Reader& r) {
  HTVM_ASSIGN_OR_RETURN(raw, r.U8());
  if (raw > static_cast<u8>(DType::kTernary)) {
    return Status::InvalidArgument(
        StrFormat("hab graph section: bad dtype tag %u", raw));
  }
  return static_cast<DType>(raw);
}

Result<Shape> ReadShape(Reader& r) {
  HTVM_ASSIGN_OR_RETURN(rank, r.U8());
  if (rank > 8) {
    return Status::InvalidArgument("hab graph section: shape rank > 8");
  }
  std::vector<i64> dims(rank);
  i64 elems = 1;
  for (i64& d : dims) {
    HTVM_ASSIGN_OR_RETURN(v, r.I64());
    if (v < 0 || v > (i64{1} << 24)) {
      return Status::InvalidArgument("hab graph section: dim out of range");
    }
    d = v;
    // Guard the product too: eight 2^24 dims would overflow i64 in
    // NumElements and demand an absurd allocation.
    elems *= std::max<i64>(v, 1);
    if (elems > (i64{1} << 26)) {
      return Status::InvalidArgument(
          "hab graph section: tensor element count out of range");
    }
  }
  return Shape(dims);
}

Result<AttrMap> ReadAttrs(Reader& r) {
  HTVM_ASSIGN_OR_RETURN(n, r.Count(kMaxAttrs, 6, "attr"));
  AttrMap attrs;
  for (i64 i = 0; i < n; ++i) {
    HTVM_ASSIGN_OR_RETURN(key, r.Str());
    HTVM_ASSIGN_OR_RETURN(tag, r.U8());
    switch (tag) {
      case 0: {
        HTVM_ASSIGN_OR_RETURN(b, r.Bool());
        attrs.Set(key, b);
        break;
      }
      case 1: {
        HTVM_ASSIGN_OR_RETURN(v, r.I64());
        attrs.Set(key, v);
        break;
      }
      case 2: {
        HTVM_ASSIGN_OR_RETURN(d, r.F64());
        attrs.Set(key, d);
        break;
      }
      case 3: {
        HTVM_ASSIGN_OR_RETURN(s, r.Str());
        attrs.Set(key, s);
        break;
      }
      case 4: {
        HTVM_ASSIGN_OR_RETURN(cnt, r.Count(i64{1} << 16, 8, "int-vec"));
        std::vector<i64> vec(static_cast<size_t>(cnt));
        for (i64& v : vec) {
          HTVM_ASSIGN_OR_RETURN(x, r.I64());
          v = x;
        }
        attrs.Set(key, std::move(vec));
        break;
      }
      default:
        return Status::InvalidArgument(
            StrFormat("hab graph section: bad attr tag %u", tag));
    }
  }
  return attrs;
}

Result<std::vector<NodeId>> ReadIdList(Reader& r, i64 cap, i64 num_nodes,
                                       const char* what) {
  HTVM_ASSIGN_OR_RETURN(n, r.Count(cap, 4, what));
  std::vector<NodeId> ids(static_cast<size_t>(n));
  for (NodeId& id : ids) {
    HTVM_ASSIGN_OR_RETURN(v, r.I32());
    if (v < 0 || v >= num_nodes) {
      return Status::InvalidArgument(
          StrFormat("hab graph section: %s id %d out of range", what, v));
    }
    id = v;
  }
  return ids;
}

Status ReadGraph(Reader& r, Graph& g, bool allow_composite) {
  HTVM_ASSIGN_OR_RETURN(num_nodes, r.Count(kMaxNodes, 2, "node"));
  for (i64 i = 0; i < num_nodes; ++i) {
    HTVM_ASSIGN_OR_RETURN(kind, r.U8());
    switch (kind) {
      case static_cast<u8>(NodeKind::kInput): {
        HTVM_ASSIGN_OR_RETURN(name, r.Str());
        HTVM_ASSIGN_OR_RETURN(dtype, ReadDType(r));
        HTVM_ASSIGN_OR_RETURN(shape, ReadShape(r));
        g.AddInput(name, {shape, dtype});
        break;
      }
      case static_cast<u8>(NodeKind::kConstant): {
        HTVM_ASSIGN_OR_RETURN(name, r.Str());
        HTVM_ASSIGN_OR_RETURN(dtype, ReadDType(r));
        HTVM_ASSIGN_OR_RETURN(shape, ReadShape(r));
        Tensor t(shape, dtype);
        HTVM_RETURN_IF_ERROR(r.CopyBytes(t.raw(), t.SizeBytes()));
        g.AddConstant(std::move(t), name);
        break;
      }
      case static_cast<u8>(NodeKind::kOp): {
        HTVM_ASSIGN_OR_RETURN(op, r.Str());
        HTVM_ASSIGN_OR_RETURN(name, r.Str());
        HTVM_ASSIGN_OR_RETURN(
            inputs, ReadIdList(r, kMaxInputs, g.NumNodes(), "op input"));
        HTVM_ASSIGN_OR_RETURN(attrs, ReadAttrs(r));
        auto id = g.TryAddOp(op, std::move(inputs), std::move(attrs), name);
        if (!id.ok()) return id.status();
        break;
      }
      case static_cast<u8>(NodeKind::kComposite): {
        if (!allow_composite) {
          return Status::InvalidArgument(
              "hab graph section: nested composite in body");
        }
        HTVM_ASSIGN_OR_RETURN(op, r.Str());
        HTVM_ASSIGN_OR_RETURN(name, r.Str());
        HTVM_ASSIGN_OR_RETURN(
            inputs, ReadIdList(r, kMaxInputs, g.NumNodes(), "composite input"));
        HTVM_ASSIGN_OR_RETURN(attrs, ReadAttrs(r));
        auto body = std::make_shared<Graph>();
        HTVM_RETURN_IF_ERROR(ReadGraph(r, *body, /*allow_composite=*/false));
        // AddComposite asserts these invariants; a corrupt file must fail
        // with a status instead.
        if (body->outputs().size() != 1) {
          return Status::InvalidArgument(
              "hab graph section: composite body output count != 1");
        }
        if (body->inputs().size() != inputs.size()) {
          return Status::InvalidArgument(
              "hab graph section: composite arity mismatch with body");
        }
        const NodeId id =
            g.AddComposite(op, std::move(inputs), std::move(body),
                           std::move(attrs));
        g.mutable_node(id).name = name;
        break;
      }
      default:
        return Status::InvalidArgument(
            StrFormat("hab graph section: bad node kind %u", kind));
    }
  }
  HTVM_ASSIGN_OR_RETURN(outputs,
                        ReadIdList(r, kMaxNodes, g.NumNodes(), "output"));
  if (outputs.empty()) {
    return Status::InvalidArgument("hab graph section: empty output list");
  }
  g.SetOutputs(std::move(outputs));
  return Status::Ok();
}

Result<dory::AccelSchedule> ReadSchedule(Reader& r) {
  dory::AccelSchedule s;
  HTVM_ASSIGN_OR_RETURN(target, r.U8());
  if (target > 1) {
    return Status::InvalidArgument("hab kernels section: bad schedule target");
  }
  s.target = target == 1 ? dory::AccelTarget::kAnalog
                         : dory::AccelTarget::kDigital;
  HTVM_ASSIGN_OR_RETURN(macs, r.I64());
  HTVM_ASSIGN_OR_RETURN(compute, r.I64());
  HTVM_ASSIGN_OR_RETURN(wdma, r.I64());
  HTVM_ASSIGN_OR_RETURN(adma, r.I64());
  HTVM_ASSIGN_OR_RETURN(exposed, r.I64());
  HTVM_ASSIGN_OR_RETURN(overhead, r.I64());
  HTVM_ASSIGN_OR_RETURN(peak, r.I64());
  HTVM_ASSIGN_OR_RETURN(full, r.I64());
  s.macs = macs;
  s.compute_cycles = compute;
  s.weight_dma_cycles = wdma;
  s.act_dma_cycles = adma;
  s.exposed_act_cycles = exposed;
  s.overhead_cycles = overhead;
  s.peak_cycles = peak;
  s.full_cycles = full;
  dory::AccelLayerSpec& sp = s.spec;
  HTVM_ASSIGN_OR_RETURN(kind, r.U8());
  if (kind > static_cast<u8>(dory::LayerKind::kMatmul)) {
    return Status::InvalidArgument("hab kernels section: bad layer kind");
  }
  sp.kind = static_cast<dory::LayerKind>(kind);
  HTVM_ASSIGN_OR_RETURN(c, r.I64());
  HTVM_ASSIGN_OR_RETURN(iy, r.I64());
  HTVM_ASSIGN_OR_RETURN(ix, r.I64());
  HTVM_ASSIGN_OR_RETURN(k, r.I64());
  HTVM_ASSIGN_OR_RETURN(oy, r.I64());
  HTVM_ASSIGN_OR_RETURN(ox, r.I64());
  HTVM_ASSIGN_OR_RETURN(kh, r.I64());
  HTVM_ASSIGN_OR_RETURN(kw, r.I64());
  HTVM_ASSIGN_OR_RETURN(sy, r.I64());
  HTVM_ASSIGN_OR_RETURN(sx, r.I64());
  HTVM_ASSIGN_OR_RETURN(pt, r.I64());
  HTVM_ASSIGN_OR_RETURN(pl, r.I64());
  HTVM_ASSIGN_OR_RETURN(pb, r.I64());
  HTVM_ASSIGN_OR_RETURN(pr, r.I64());
  sp.c = c;
  sp.iy = iy;
  sp.ix = ix;
  sp.k = k;
  sp.oy = oy;
  sp.ox = ox;
  sp.kh = kh;
  sp.kw = kw;
  sp.sy = sy;
  sp.sx = sx;
  sp.pad_t = pt;
  sp.pad_l = pl;
  sp.pad_b = pb;
  sp.pad_r = pr;
  HTVM_ASSIGN_OR_RETURN(wdtype, ReadDType(r));
  sp.weight_dtype = wdtype;
  HTVM_ASSIGN_OR_RETURN(shift, r.I64());
  HTVM_ASSIGN_OR_RETURN(relu, r.Bool());
  sp.requant.shift = shift;
  sp.requant.relu = relu;
  HTVM_ASSIGN_OR_RETURN(nch, r.Count(kMaxNodes, 8, "channel-shift"));
  sp.requant.channel_shifts.resize(static_cast<size_t>(nch));
  for (i64& cs : sp.requant.channel_shifts) {
    HTVM_ASSIGN_OR_RETURN(v, r.I64());
    cs = v;
  }
  dory::TileSolution& so = s.solution;
  HTVM_ASSIGN_OR_RETURN(ct, r.I64());
  HTVM_ASSIGN_OR_RETURN(kt, r.I64());
  HTVM_ASSIGN_OR_RETURN(oyt, r.I64());
  HTVM_ASSIGN_OR_RETURN(oxt, r.I64());
  HTVM_ASSIGN_OR_RETURN(iyt, r.I64());
  HTVM_ASSIGN_OR_RETURN(ixt, r.I64());
  HTVM_ASSIGN_OR_RETURN(nc, r.I64());
  HTVM_ASSIGN_OR_RETURN(nk, r.I64());
  HTVM_ASSIGN_OR_RETURN(ny, r.I64());
  HTVM_ASSIGN_OR_RETURN(nx, r.I64());
  HTVM_ASSIGN_OR_RETURN(needs, r.Bool());
  HTVM_ASSIGN_OR_RETURN(psum, r.Bool());
  HTVM_ASSIGN_OR_RETURN(objective, r.F64());
  HTVM_ASSIGN_OR_RETURN(l1, r.I64());
  so.c_t = ct;
  so.k_t = kt;
  so.oy_t = oyt;
  so.ox_t = oxt;
  so.iy_t = iyt;
  so.ix_t = ixt;
  so.n_c = nc;
  so.n_k = nk;
  so.n_y = ny;
  so.n_x = nx;
  so.needs_tiling = needs;
  so.psum = psum;
  so.objective = objective;
  so.l1_bytes = l1;
  dory::TilerOptions& t = s.options;
  HTVM_ASSIGN_OR_RETURN(alpha, r.F64());
  HTVM_ASSIGN_OR_RETURN(beta_pe, r.F64());
  HTVM_ASSIGN_OR_RETURN(beta_dma, r.F64());
  HTVM_ASSIGN_OR_RETURN(pe, r.Bool());
  HTVM_ASSIGN_OR_RETURN(dma, r.Bool());
  HTVM_ASSIGN_OR_RETURN(db, r.Bool());
  HTVM_ASSIGN_OR_RETURN(budget, r.I64());
  t.alpha = alpha;
  t.beta_pe = beta_pe;
  t.beta_dma = beta_dma;
  t.enable_pe_heuristics = pe;
  t.enable_dma_heuristic = dma;
  t.double_buffer = db;
  t.l1_budget_bytes = budget;
  HTVM_ASSIGN_OR_RETURN(nsteps, r.Count(kMaxSteps, 122, "step"));
  s.steps.reserve(static_cast<size_t>(nsteps));
  for (i64 i = 0; i < nsteps; ++i) {
    dory::TileStep st;
    HTVM_ASSIGN_OR_RETURN(c0, r.I64());
    HTVM_ASSIGN_OR_RETURN(k0, r.I64());
    HTVM_ASSIGN_OR_RETURN(y0, r.I64());
    HTVM_ASSIGN_OR_RETURN(x0, r.I64());
    HTVM_ASSIGN_OR_RETURN(sct, r.I64());
    HTVM_ASSIGN_OR_RETURN(skt, r.I64());
    HTVM_ASSIGN_OR_RETURN(soyt, r.I64());
    HTVM_ASSIGN_OR_RETURN(soxt, r.I64());
    HTVM_ASSIGN_OR_RETURN(siyt, r.I64());
    HTVM_ASSIGN_OR_RETURN(sixt, r.I64());
    HTVM_ASSIGN_OR_RETURN(first, r.Bool());
    HTVM_ASSIGN_OR_RETURN(last, r.Bool());
    HTVM_ASSIGN_OR_RETURN(scompute, r.I64());
    HTVM_ASSIGN_OR_RETURN(in_dma, r.I64());
    HTVM_ASSIGN_OR_RETURN(out_dma, r.I64());
    HTVM_ASSIGN_OR_RETURN(swdma, r.I64());
    HTVM_ASSIGN_OR_RETURN(setup, r.I64());
    st.c0 = c0;
    st.k0 = k0;
    st.y0 = y0;
    st.x0 = x0;
    st.c_t = sct;
    st.k_t = skt;
    st.oy_t = soyt;
    st.ox_t = soxt;
    st.iy_t = siyt;
    st.ix_t = sixt;
    st.first_c = first;
    st.last_c = last;
    st.compute_cycles = scompute;
    st.in_dma_cycles = in_dma;
    st.out_dma_cycles = out_dma;
    st.weight_dma_cycles = swdma;
    st.setup_cycles = setup;
    s.steps.push_back(st);
  }
  return s;
}

Status ReadKernels(Reader& r, const Graph& kernel_graph,
                   std::vector<compiler::CompiledKernel>& kernels) {
  HTVM_ASSIGN_OR_RETURN(n, r.Count(kMaxKernels, 42, "kernel"));
  kernels.reserve(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) {
    compiler::CompiledKernel k;
    HTVM_ASSIGN_OR_RETURN(name, r.Str());
    HTVM_ASSIGN_OR_RETURN(target, r.Str());
    HTVM_ASSIGN_OR_RETURN(node, r.I32());
    HTVM_ASSIGN_OR_RETURN(code, r.I64());
    HTVM_ASSIGN_OR_RETURN(weight, r.I64());
    if (node < 0 || node >= kernel_graph.NumNodes()) {
      return Status::InvalidArgument(
          "hab kernels section: kernel node id out of range");
    }
    k.name = name;
    k.target = target;
    k.node = node;
    k.code_bytes = code;
    k.weight_bytes = weight;
    HTVM_ASSIGN_OR_RETURN(pname, r.Str());
    HTVM_ASSIGN_OR_RETURN(ptarget, r.Str());
    k.perf.name = pname;
    k.perf.target = ptarget;
    HTVM_ASSIGN_OR_RETURN(macs, r.I64());
    HTVM_ASSIGN_OR_RETURN(peak, r.I64());
    HTVM_ASSIGN_OR_RETURN(full, r.I64());
    HTVM_ASSIGN_OR_RETURN(compute, r.I64());
    HTVM_ASSIGN_OR_RETURN(wdma, r.I64());
    HTVM_ASSIGN_OR_RETURN(adma, r.I64());
    HTVM_ASSIGN_OR_RETURN(overhead, r.I64());
    HTVM_ASSIGN_OR_RETURN(tiles, r.I64());
    k.perf.macs = macs;
    k.perf.peak_cycles = peak;
    k.perf.full_cycles = full;
    k.perf.compute_cycles = compute;
    k.perf.weight_dma_cycles = wdma;
    k.perf.act_dma_cycles = adma;
    k.perf.overhead_cycles = overhead;
    k.perf.tiles = tiles;
    HTVM_ASSIGN_OR_RETURN(has_sched, r.Bool());
    if (has_sched) {
      HTVM_ASSIGN_OR_RETURN(sched, ReadSchedule(r));
      k.schedule = std::move(sched);
    }
    kernels.push_back(std::move(k));
  }
  return r.ExpectEnd();
}

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
  const auto add = [&](HabSection id, auto&& write) {
    Writer w;
    write(w);
    sections.push_back({id, w.str()});
  };
  add(HabSection::kMeta, [&](Writer& w) { WriteMeta(w, meta); });
  add(HabSection::kHwConfig, [&](Writer& w) { WriteHwConfig(w, a.hw_config); });
  add(HabSection::kSize, [&](Writer& w) { WriteSize(w, a.size); });
  add(HabSection::kMemPlan, [&](Writer& w) { WriteMemPlan(w, a.memory_plan); });
  add(HabSection::kPasses, [&](Writer& w) { WritePasses(w, a.pass_timeline); });
  add(HabSection::kDispatch,
      [&](Writer& w) { WriteDispatch(w, a.dispatch_log); });
  add(HabSection::kGraph, [&](Writer& w) { WriteGraph(w, a.kernel_graph); });
  add(HabSection::kKernels, [&](Writer& w) { WriteKernels(w, a.kernels); });
  // kSoc only for non-default SoCs: keeps "diana" HABs byte-identical to
  // pre-SoC-family producers (and loadable by their readers, which skip
  // unknown section ids).
  if (a.soc_name != "diana") {
    add(HabSection::kSoc, [&](Writer& w) { w.Str(a.soc_name); });
  }
  // kPlan only when a graph-level search actually produced a plan: the
  // heuristic path serializes byte-identically to pre-graph-search HABs.
  if (!a.plan.empty()) {
    add(HabSection::kPlan, [&](Writer& w) { w.Str(a.plan.Serialize()); });
  }

  // Lay out payloads 8-byte aligned after header + section table.
  const size_t table_bytes = sections.size() * kHabSectionEntryBytes;
  u64 offset = kHabHeaderBytes + table_bytes;
  Writer table;
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

  Writer header;
  header.U64(LoadU64(reinterpret_cast<const u8*>(kHabMagic)));
  header.U32(kHabVersion);
  header.U32(kHabEndianTag);
  header.U32(kHabHeaderBytes);
  header.U32(static_cast<u32>(sections.size()));
  header.U64(offset);  // total file bytes
  std::string out = header.str();
  out.resize(kHabHeaderBytes, '\0');
  out += table.str();
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
  struct Span {
    const u8* data = nullptr;
    size_t size = 0;
  };
  Span by_id[16];
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
      if (by_id[info.id].data != nullptr) {
        return Status::InvalidArgument(
            StrFormat("hab: duplicate section %u", info.id));
      }
      by_id[info.id] = {payload, static_cast<size_t>(bytes)};
    }
  }

  const auto section = [&](HabSection id) -> Result<Span> {
    const Span s = by_id[static_cast<u32>(id)];
    if (s.data == nullptr) {
      return Status::InvalidArgument(
          StrFormat("hab: missing section %u", static_cast<u32>(id)));
    }
    return s;
  };

  compiler::Artifact& a = parsed.artifact;
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kMeta));
    Reader r(s.data, s.size, "meta");
    HTVM_RETURN_IF_ERROR(ReadMeta(r, parsed.meta));
  }
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kHwConfig));
    Reader r(s.data, s.size, "hw-config");
    HTVM_RETURN_IF_ERROR(ReadHwConfig(r, a.hw_config));
  }
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kSize));
    Reader r(s.data, s.size, "size");
    HTVM_RETURN_IF_ERROR(ReadSize(r, a.size));
  }
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kMemPlan));
    Reader r(s.data, s.size, "mem-plan");
    HTVM_RETURN_IF_ERROR(ReadMemPlan(r, a.memory_plan));
  }
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kPasses));
    Reader r(s.data, s.size, "passes");
    HTVM_RETURN_IF_ERROR(ReadPasses(r, a.pass_timeline));
  }
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kDispatch));
    Reader r(s.data, s.size, "dispatch");
    HTVM_RETURN_IF_ERROR(ReadDispatch(r, a.dispatch_log));
  }
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kGraph));
    Reader r(s.data, s.size, "graph");
    HTVM_RETURN_IF_ERROR(ReadGraph(r, a.kernel_graph,
                                   /*allow_composite=*/true));
    HTVM_RETURN_IF_ERROR(r.ExpectEnd());
    HTVM_RETURN_IF_ERROR(a.kernel_graph.Validate());
  }
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kKernels));
    Reader r(s.data, s.size, "kernels");
    HTVM_RETURN_IF_ERROR(ReadKernels(r, a.kernel_graph, a.kernels));
  }
  // kSoc is optional: absent in every "diana" HAB (and everything produced
  // before SoC families existed), where the member default applies. An
  // explicit "diana" is non-canonical — two encodings of one artifact would
  // break content addressing — so it is rejected like an empty name.
  {
    const Span s = by_id[static_cast<u32>(HabSection::kSoc)];
    if (s.data != nullptr) {
      Reader r(s.data, s.size, "soc");
      HTVM_ASSIGN_OR_RETURN(name, r.Str());
      HTVM_RETURN_IF_ERROR(r.ExpectEnd());
      if (name.empty() || name == "diana") {
        return Status::InvalidArgument(
            "hab: soc section must name a non-default SoC");
      }
      a.soc_name = name;
    }
  }
  // kPlan is optional: absent for heuristic compiles and everything
  // produced before graph-level search existed. When present, the plan
  // must name the artifact's own SoC — a plan searched for SoC A encodes
  // A's fusion legality and dispatch capabilities, so replaying it against
  // another SoC would be silently wrong. Refuse with a typed error.
  {
    const Span s = by_id[static_cast<u32>(HabSection::kPlan)];
    if (s.data != nullptr) {
      Reader r(s.data, s.size, "plan");
      HTVM_ASSIGN_OR_RETURN(text, r.Str());
      HTVM_RETURN_IF_ERROR(r.ExpectEnd());
      HTVM_ASSIGN_OR_RETURN(plan, dory::GraphPlan::Deserialize(text));
      if (plan.soc_name != a.soc_name) {
        return Status::InvalidArgument(StrFormat(
            "hab: plan section was searched for soc \"%s\" but the artifact "
            "targets soc \"%s\" — refusing to replay a cross-SoC plan",
            plan.soc_name.c_str(), a.soc_name.c_str()));
      }
      a.plan = std::move(plan);
    }
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
