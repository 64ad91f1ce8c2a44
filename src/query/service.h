// QueryService: the concurrent SCubeQL serving layer.
//
// One service owns an LRU result cache in front of a CubeStore and owns
// no threads: every statement executes on its caller's thread through
// ExecuteStreaming — parse, resolve the cube snapshot, answer from the
// cache or walk the snapshot's indexes into the caller's RowSink. Buffered
// answers (QueryBackend::ExecuteOne / ExecuteBatch) are that stream
// captured by a VectorSink. Publishing new cubes proceeds concurrently:
// in-flight queries keep their snapshot.
//
// Overload safety (the network front-end's contract):
//   - admission control: at most max_pending statements execute at once;
//     a statement arriving at the bound is shed immediately with
//     Unavailable (scubed turns that into HTTP 503 + Retry-After),
//   - per-query deadlines: a QueryContext deadline (or the configured
//     default, applied per statement) is checked cooperatively inside the
//     index walks, so expired queries return DeadlineExceeded instead of
//     running to completion,
//   - graceful shutdown: Shutdown() stops admitting; statements already
//     executing finish on their callers' threads,
//   - publish-time warming: PublishAndWarm() re-executes the hottest
//     cached query texts against the freshly sealed view, so a publish
//     does not cliff the cache hit rate.

#ifndef SCUBE_QUERY_SERVICE_H_
#define SCUBE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "query/ast.h"
#include "query/backend.h"
#include "query/context.h"
#include "query/cube_store.h"
#include "query/query_result.h"
#include "query/row_sink.h"

namespace scube {
namespace query {

/// \brief Service tuning knobs.
struct ServiceOptions {
  /// Result-cache entries across all cubes (0 disables caching).
  size_t cache_capacity = 256;

  /// Admission bound: a statement arriving while this many statements
  /// are executing is shed with Unavailable. Each execution pins a cube
  /// snapshot and burns CPU on its caller's thread. 0 sheds everything
  /// (useful for drain tests).
  size_t max_pending = 256;

  /// Deadline applied to each statement of a request that carries none
  /// (milliseconds); 0 = unbounded.
  double default_deadline_ms = 0;

  /// Hottest cached query texts re-executed by PublishAndWarm().
  size_t warm_top_n = 8;

  /// Threads sealing a cube at publish time (PublishAndWarm runs the seal
  /// inline on the serving path, so this bounds publish latency):
  /// 1 = sequential, 0 = all hardware threads, N = at most N threads from
  /// the shared pool. The sealed view is identical for every setting.
  size_t seal_threads = 1;

  /// Answers above this many rows are not materialised into the result
  /// cache — the streaming path's memory stays bounded no matter how large
  /// the answer is. The rule covers every answer, buffered or streamed.
  size_t cache_max_rows = 10000;
};

/// \brief Concurrent query server over a CubeStore. Thread-safe.
class QueryService : public QueryBackend {
 public:
  explicit QueryService(CubeStore* store, ServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Streams one query's answer into `sink` on the caller's thread
  /// (header -> rows -> trailer; the service calls sink.Finish), under
  /// admission control (Unavailable when max_pending statements are
  /// executing), the default deadline, and the result cache — hits replay
  /// the materialised result through the sink byte-identically to a live
  /// stream; misses that stay under options().cache_max_rows rows are
  /// materialised into the cache as they stream past.
  ///
  /// `cursor` resumes a previous page: it pins the exact name@version
  /// snapshot the first page walked (NotFound once evicted) and overrides
  /// the query's OFFSET with the saved position, so stitched pages equal
  /// the unpaginated answer. Cursor-resumed requests bypass the cache.
  StreamOutcome ExecuteStreaming(const std::string& text, RowSink& sink,
                                 const QueryContext& ctx = {},
                                 const std::string& cursor = "") override;

  /// \brief Outcome of a PublishAndWarm call.
  struct PublishInfo {
    uint64_t version = 0;  ///< the newly published version
    size_t warmed = 0;     ///< cache entries pre-filled for that version
  };

  /// Publishes `cube` under `name` and immediately re-executes the
  /// hottest cached query texts for that cube (options().warm_top_n)
  /// against the fresh snapshot, pre-filling the result cache. Warming
  /// runs on the caller's thread and bypasses admission control — the
  /// publisher pays for it, traffic is not displaced. Version-pinned
  /// texts (`FROM name@v`) are skipped: they do not target the new
  /// version. Answers above options().cache_max_rows rows are not cached.
  PublishInfo PublishAndWarm(const std::string& name,
                             cube::SegregationCube cube);

  /// Stops admitting new statements; those already executing finish
  /// normally on their callers' threads. Idempotent.
  void Shutdown();

  ResultCache::Stats cache_stats() const { return cache_.stats(); }
  void ClearCache() { cache_.Clear(); }
  const ServiceOptions& options() const { return options_; }

  /// Serving counters snapshot.
  ServiceStats stats() const override;

  /// Published cubes in the underlying store (GET /cubes).
  std::vector<CubeInfo> ListCubes() const override;

  /// Queue-depth gauge and result-cache counters for /metrics.
  void AppendBackendMetrics(std::string* out) const override;

  /// Statements executing now (the admission-controlled backlog; exported
  /// as scubed_queue_depth).
  size_t queue_depth() const;

 private:
  /// OK to proceed, holding one admission slot (released by the
  /// statement's finish path through ReleaseSlot), or the Unavailable
  /// shed status.
  Status AdmitOrShed();
  void ReleaseSlot();

  CubeStore* store_;
  ServiceOptions options_;
  ResultCache cache_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> completed_{0};

  mutable sync::Mutex admit_mu_;
  /// Admitted statements that have not finished: the admission backlog.
  size_t in_flight_ GUARDED_BY(admit_mu_) = 0;
  bool stopping_ GUARDED_BY(admit_mu_) = false;
};

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_SERVICE_H_
