// Content-addressed compiled-artifact cache (the tentpole of
// docs/artifact_cache.md).
//
// ArtifactCache maps CacheKey (structural graph hash + options fingerprint)
// to immutable compiled Artifacts. It is:
//   - thread-safe: one mutex guards the LRU index and the stats; lookups
//     hand out shared_ptr<const Artifact> so readers never copy or block
//     each other after the index probe;
//   - byte-budgeted LRU: entry cost is the artifact's estimated resident
//     size (exact for the dominant constant payloads);
//   - optionally persistent: with a non-empty `dir`, every store also writes
//     <dir>/<key>.htvmart as a HAB file (vm::SaveHab, atomic tmp+rename) and
//     a memory miss falls back to disk through vm::LoadedArtifact — a second
//     process serving the same models compiles nothing. A file that fails to
//     load is a miss, and the Store that follows rewrites it.
//
// PassManager::Run consults the cache through the compiler-side
// ArtifactCacheHook interface (dependency arrow: cache -> compiler, never
// back). FleetScheduler workers share one process-wide instance via
// GlobalArtifactCache() so N SoCs serving the same model compile once.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cache/cache_key.hpp"
#include "compiler/pipeline.hpp"

namespace htvm::cache {

struct ArtifactCacheOptions {
  // In-memory budget in estimated resident bytes. Least-recently-used
  // entries are evicted past it; a single entry may exceed the budget (it
  // is kept alone rather than thrashing).
  i64 max_bytes = 256ll * 1024 * 1024;
  // On-disk persistence directory; empty disables persistence.
  std::string dir;
};

// Monotonic counters; miss_cost_ns/saved_ns come from the artifact's own
// pass_timeline, so "saved" is the measured cost of the compile the hit
// avoided, not an estimate.
struct CacheStats {
  i64 hits = 0;         // lookups served (memory or disk)
  i64 misses = 0;       // lookups that fell through to a compile
  i64 evictions = 0;    // entries dropped by the LRU budget
  i64 disk_hits = 0;    // subset of hits served from the persistence dir
  i64 disk_writes = 0;  // artifacts persisted to the dir
  i64 compiles = 0;     // Store() calls, i.e. cold compiles paid
  i64 entries = 0;      // current in-memory entry count
  i64 bytes = 0;        // current in-memory bytes (resident-size estimate)
  i64 miss_cost_ns = 0;  // total pass-pipeline time paid on misses
  i64 saved_ns = 0;      // total pass-pipeline time avoided on hits
};

class ArtifactCache final : public compiler::ArtifactCacheHook {
 public:
  explicit ArtifactCache(ArtifactCacheOptions options = {});

  // compiler::ArtifactCacheHook:
  std::string Key(const Graph& network,
                  const compiler::CompileOptions& options) override;
  std::shared_ptr<const compiler::Artifact> Lookup(
      const std::string& key) override;
  void Store(const std::string& key,
             const compiler::Artifact& artifact) override;

  CacheStats stats() const;
  ArtifactCacheOptions options() const;

  // Drops every entry and zeroes the stats; with new_options, also
  // reconfigures (used by ConfigureGlobalArtifactCache and tests). Does not
  // delete persisted files.
  void Reset();
  void Reset(const ArtifactCacheOptions& new_options);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const compiler::Artifact> artifact;
    i64 bytes = 0;
  };

  std::string DiskPath(const std::string& key) const;
  // Inserts at the LRU head and evicts past the budget. Caller holds mu_.
  void InsertLocked(const std::string& key,
                    std::shared_ptr<const compiler::Artifact> artifact,
                    i64 bytes);

  mutable std::mutex mu_;
  ArtifactCacheOptions options_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  // Keys whose disk entry exists but failed to load; their next Store
  // overwrites the file instead of trusting that it exists.
  std::unordered_set<std::string> unreadable_;
  CacheStats stats_;
};

// The process-wide cache every FleetScheduler worker and htvm-serve model
// registration compiles through.
ArtifactCache& GlobalArtifactCache();
// Reconfigures (and clears) the global cache — call once at startup, before
// workers race on it.
void ConfigureGlobalArtifactCache(const ArtifactCacheOptions& options);

}  // namespace htvm::cache
