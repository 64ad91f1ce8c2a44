// CubeStore: the registry between cube *builds* and cube *queries*.
//
// Pipeline runs publish mutable SegregationCube builds under a name; the
// store seals each build into an immutable, indexed cube::CubeView exactly
// once at publish time (not per query) and hands out
// shared_ptr<const CubeView> snapshots. Queries keep working on their
// snapshot even while a newer version of the same cube is being published —
// publishing never blocks readers, readers never block builds.
//
// Each publish bumps a monotonically increasing version; the store retains
// the last `max_versions` sealed views per name, so `FROM name@version`
// pins can be answered for recent history. The result cache keys on the
// version, so stale results age out without explicit invalidation.

#ifndef SCUBE_QUERY_CUBE_STORE_H_
#define SCUBE_QUERY_CUBE_STORE_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "common/trace.h"
#include "cube/cube.h"
#include "cube/cube_view.h"
#include "query/query_result.h"

namespace scube {
namespace query {

class Executor;

/// \brief Named, versioned, immutable sealed-cube snapshots. Thread-safe.
class CubeStore {
 public:
  using Snapshot = std::shared_ptr<const cube::CubeView>;

  /// Sealed versions retained per cube name by default.
  static constexpr size_t kDefaultMaxVersions = 4;

  explicit CubeStore(size_t max_versions = kDefaultMaxVersions)
      : max_versions_(max_versions == 0 ? 1 : max_versions) {}

  /// Sealed versions retained per name (construction-time setting).
  size_t max_versions() const { return max_versions_; }

  /// Seals the cube and publishes it under `name`; returns the new version
  /// (1 on first publish). Existing snapshots stay valid; versions older
  /// than the last `max_versions` are evicted from the store (readers
  /// holding them keep them alive). `num_threads` parallelises the seal
  /// (see SegregationCube::Seal(): 1 = sequential, 0 = hardware, N = at
  /// most N shared-pool threads) — the sealed view is identical either
  /// way, only publish latency changes. When `trace` is non-null the seal
  /// is recorded as a "build.seal" span (the same phase name
  /// bench_cube_builder reports, so publish and bench timings line up).
  uint64_t Publish(const std::string& name, cube::SegregationCube cube,
                   size_t num_threads = 1,
                   trace::TraceContext* trace = nullptr);

  /// Latest snapshot, or nullptr when no cube has that name. When
  /// `version` is non-null it receives the snapshot's version (0 when
  /// absent) — taken under the same lock, so the pair is consistent even
  /// against concurrent publishes.
  Snapshot Get(const std::string& name, uint64_t* version = nullptr) const;

  /// Exact-version snapshot (`FROM name@version`); nullptr when the name
  /// is unknown or the version was evicted / never published.
  Snapshot GetVersion(const std::string& name, uint64_t version) const;

  /// An Executor over one retained sealed version, stamping `version`
  /// into every answer's ResultHeader. The returned pointer keeps the
  /// snapshot alive on its own, so it stays valid after the version is
  /// evicted. Nullptr when the name/version is unknown or already evicted.
  std::shared_ptr<const Executor> GetExecutor(const std::string& name,
                                              uint64_t version) const;

  /// Current version; 0 when absent.
  uint64_t Version(const std::string& name) const;

  /// Versions currently retained for `name`, ascending; empty when absent.
  std::vector<uint64_t> RetainedVersions(const std::string& name) const;

  /// Published cube names, sorted.
  std::vector<std::string> Names() const;

 private:
  struct SealedVersion {
    uint64_t version = 0;
    Snapshot view;
  };
  struct Entry {
    uint64_t latest = 0;
    /// Ascending by version; at most max_versions_.
    std::deque<SealedVersion> versions;
  };
  const size_t max_versions_;
  mutable sync::Mutex mu_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mu_);
};

/// \brief LRU cache of query results, keyed by (cube, version, canonical
/// query text). Thread-safe. A new cube version changes the key, so stale
/// entries are never served and fall out through normal LRU eviction.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// Cache lookup; refreshes recency on hit.
  std::optional<QueryResult> Get(const std::string& cube, uint64_t version,
                                 const std::string& canonical_query);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// entry when over capacity. No-op when capacity is 0.
  void Put(const std::string& cube, uint64_t version,
           const std::string& canonical_query, QueryResult result);

  Stats stats() const;
  size_t size() const;
  void Clear();

  /// The `n` most-hit canonical query texts cached for `cube`, hottest
  /// first (hit counts summed across cube versions, ties broken by
  /// recency). This is the publish-time warming set: re-executing these
  /// against a freshly published version refills the cache before organic
  /// traffic misses.
  std::vector<std::string> Hottest(const std::string& cube, size_t n) const;

 private:
  /// Key components are stored once; the flat lookup key (see MakeKey)
  /// is rebuilt on demand (eviction) rather than duplicated per entry.
  struct Entry {
    std::string cube;       ///< cube name
    uint64_t version = 0;   ///< cube version
    std::string canonical;  ///< canonical query text
    uint64_t hits = 0;      ///< Get() hits on this entry
    QueryResult result;
  };
  using LruList = std::list<Entry>;

  static std::string MakeKey(const std::string& cube, uint64_t version,
                             const std::string& canonical_query);

  mutable sync::Mutex mu_;
  size_t capacity_;
  LruList lru_ GUARDED_BY(mu_);  ///< front = most recent
  std::unordered_map<std::string, LruList::iterator> index_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_CUBE_STORE_H_
