#include "cache/artifact_cache.hpp"

#include <filesystem>
#include <utility>

#include "vm/hab.hpp"
#include "vm/loaded_artifact.hpp"

namespace htvm::cache {
namespace {

// Resident-size estimate for LRU accounting. Dominated by the constant
// payloads (exact); graph/kernel/plan bookkeeping is charged per record.
// Deliberately not SerializeHab().size(): serializing on every Store
// would cost more than many of the compiles being cached.
i64 EstimateArtifactBytes(const compiler::Artifact& a) {
  i64 bytes = 4096;
  for (const Node& n : a.kernel_graph.nodes()) {
    bytes += 256;
    if (n.kind == NodeKind::kConstant) bytes += n.value.SizeBytes();
    if (n.body != nullptr) {
      for (const Node& b : n.body->nodes()) {
        bytes += 256;
        if (b.kind == NodeKind::kConstant) bytes += b.value.SizeBytes();
      }
    }
  }
  bytes += static_cast<i64>(a.kernels.size()) * 1024;
  bytes += static_cast<i64>(a.memory_plan.buffers.size()) * 64;
  bytes += static_cast<i64>(a.pass_timeline.size()) * 64;
  bytes += static_cast<i64>(a.dispatch_log.size()) * 128;
  return bytes;
}

}  // namespace

ArtifactCache::ArtifactCache(ArtifactCacheOptions options)
    : options_(std::move(options)) {
  if (!options_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
  }
}

std::string ArtifactCache::Key(const Graph& network,
                               const compiler::CompileOptions& options) {
  return MakeCacheKey(network, options).ToString();
}

std::string ArtifactCache::DiskPath(const std::string& key) const {
  return options_.dir + "/" + key + ".htvmart";
}

void ArtifactCache::InsertLocked(
    const std::string& key, std::shared_ptr<const compiler::Artifact> artifact,
    i64 bytes) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent compilers can race Store() on the same key; artifacts are
    // deterministic, so keeping the incumbent is equivalent.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(artifact), bytes});
  index_[key] = lru_.begin();
  stats_.entries += 1;
  stats_.bytes += bytes;
  // Evict from the cold end, never the entry just inserted: one oversize
  // artifact is kept alone instead of thrashing forever.
  while (stats_.bytes > options_.max_bytes && lru_.size() > 1) {
    Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    stats_.entries -= 1;
    stats_.evictions += 1;
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

std::shared_ptr<const compiler::Artifact> ArtifactCache::Lookup(
    const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      stats_.hits += 1;
      stats_.saved_ns +=
          compiler::PassTimelineTotalNs(it->second->artifact->pass_timeline);
      return it->second->artifact;
    }
  }
  // Disk probe happens outside the lock: file I/O and parsing must not
  // serialize unrelated lookups.
  bool unreadable = false;
  if (!options_.dir.empty()) {
    Result<vm::LoadedArtifact> loaded =
        vm::LoadedArtifact::FromFile(DiskPath(key));
    if (loaded.ok()) {
      auto artifact = loaded->shared_artifact();
      const i64 bytes = EstimateArtifactBytes(*artifact);
      std::lock_guard<std::mutex> lock(mu_);
      stats_.hits += 1;
      stats_.disk_hits += 1;
      stats_.saved_ns +=
          compiler::PassTimelineTotalNs(artifact->pass_timeline);
      InsertLocked(key, artifact, bytes);
      return artifact;
    }
    // A file that exists but does not load (corrupt, foreign format, version
    // skew) is a miss whose next Store must overwrite it.
    unreadable = loaded.status().code() != StatusCode::kNotFound;
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.misses += 1;
  if (unreadable) unreadable_.insert(key);
  return nullptr;
}

void ArtifactCache::Store(const std::string& key,
                          const compiler::Artifact& artifact) {
  auto shared = std::make_shared<const compiler::Artifact>(artifact);
  bool persist = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.compiles += 1;
    stats_.miss_cost_ns +=
        compiler::PassTimelineTotalNs(artifact.pass_timeline);
    InsertLocked(key, std::move(shared), EstimateArtifactBytes(artifact));
    persist = !options_.dir.empty() &&
              (unreadable_.erase(key) > 0 ||
               !std::filesystem::exists(DiskPath(key)));
    if (persist) stats_.disk_writes += 1;
  }
  if (persist) {
    // Best-effort: a failed write degrades to memory-only caching.
    vm::HabMeta meta;
    meta.model_name = key;
    meta.producer = "artifact-cache";
    (void)vm::SaveHab(artifact, meta, DiskPath(key));
  }
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ArtifactCacheOptions ArtifactCache::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

void ArtifactCache::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  unreadable_.clear();
  stats_ = CacheStats{};
}

void ArtifactCache::Reset(const ArtifactCacheOptions& new_options) {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  unreadable_.clear();
  stats_ = CacheStats{};
  options_ = new_options;
  if (!options_.dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
  }
}

ArtifactCache& GlobalArtifactCache() {
  static ArtifactCache* cache = new ArtifactCache();
  return *cache;
}

void ConfigureGlobalArtifactCache(const ArtifactCacheOptions& options) {
  GlobalArtifactCache().Reset(options);
}

}  // namespace htvm::cache
