#include "query/service.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "query/executor.h"
#include "query/parser.h"

namespace scube {
namespace query {

namespace {

/// A cached answer stamped with merge keys serves any request; a keyless
/// one cannot answer a merge-keys request (the shard wire path) — that
/// request must re-execute so its rows carry keys, and the re-execution's
/// Put upgrades the entry.
bool UsableFromCache(const QueryResult& result, const QueryContext& ctx) {
  return !ctx.merge_keys || result.rows.empty() ||
         !result.rows.front().skey.empty();
}

/// Forwards a stream to `out` while materialising a copy for the result
/// cache — up to `max_rows` rows, beyond which the copy is dropped and the
/// stream stays O(1): giant answers flow through uncached.
class CachingTee : public RowSink {
 public:
  CachingTee(RowSink& out, size_t max_rows)
      : out_(out), max_rows_(max_rows) {}

  bool Begin(const ResultHeader& header) override {
    vec_.Begin(header);
    return out_.Begin(header);
  }

  bool Row(const ResultRow& row) override {
    CollectForCache(row);
    return out_.Row(row);
  }

  bool Row(ResultRow&& row) override {
    CollectForCache(row);  // the cache copy; the original moves onward
    return out_.Row(std::move(row));
  }

  void Finish(const ResultTrailer& trailer) override {
    vec_.Finish(trailer);
    out_.Finish(trailer);
  }

  bool cacheable() const { return cacheable_; }
  VectorSink& collected() { return vec_; }

 private:
  void CollectForCache(const ResultRow& row) {
    if (!cacheable_) return;
    if (vec_.result().rows.size() >= max_rows_) {
      cacheable_ = false;
      vec_ = VectorSink();  // free what was collected
    } else {
      vec_.Row(row);
    }
  }

  RowSink& out_;
  size_t max_rows_;
  VectorSink vec_;
  bool cacheable_ = true;
};

}  // namespace

QueryService::QueryService(CubeStore* store, ServiceOptions options)
    : store_(store),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {}

void QueryService::Shutdown() {
  sync::MutexLock lock(&admit_mu_);
  stopping_ = true;
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  return s;
}

size_t QueryService::queue_depth() const {
  sync::MutexLock lock(&admit_mu_);
  return in_flight_;
}

Status QueryService::AdmitOrShed() {
  sync::MutexLock lock(&admit_mu_);
  if (stopping_) return Status::Unavailable("service is shutting down");
  if (in_flight_ >= options_.max_pending) {
    return Status::Unavailable(
        "admission queue full (" + std::to_string(in_flight_) +
        " executing >= " + std::to_string(options_.max_pending) +
        "); retry later");
  }
  ++in_flight_;
  return Status::OK();
}

void QueryService::ReleaseSlot() {
  sync::MutexLock lock(&admit_mu_);
  --in_flight_;
}

StreamOutcome QueryService::ExecuteStreaming(
    const std::string& text, RowSink& sink, const QueryContext& ctx,
    const std::string& cursor) {
  StreamOutcome outcome;
  outcome.text = text;

  // --- admission control: shedding must be cheap, so the bound is checked
  // before any parse or cache work. An admitted statement holds a cube
  // snapshot and burns CPU on this thread, so it occupies an admission
  // slot for its whole execution (the front-end maps Unavailable to 503 +
  // Retry-After).
  trace::Span admit_span(ctx.trace, "admit");
  Status admitted = AdmitOrShed();
  admit_span.End();
  if (!admitted.ok()) {
    outcome.status = std::move(admitted);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);

  const QueryContext context =
      ctx.WithDefaultDeadline(options_.default_deadline_ms);

  // Every post-admission exit funnels through here: the admission slot is
  // released exactly once, when the stream is done.
  auto finish = [this, &outcome](Status status) -> StreamOutcome& {
    ReleaseSlot();
    outcome.status = std::move(status);
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  };

  // --- parse, check the cursor and resolve the snapshot --------------------
  trace::Span prepare_span(context.trace, "prepare");
  auto statement = PrepareStatement(text, cursor, 1, &outcome);
  if (!statement.ok()) return finish(statement.status());
  Query& query = statement->query;
  const uint64_t query_hash = statement->query_hash;

  CubeStore::Snapshot snapshot;
  uint64_t version = 0;
  if (statement->cursor) {
    version = statement->cursor->version;
    snapshot = store_->GetVersion(outcome.cube, version);
    if (snapshot == nullptr) {
      return finish(Status::NotFound(
          "cursor version " + std::to_string(version) + " of cube '" +
          outcome.cube + "' is gone (evicted); restart the scan"));
    }
    query.offset = statement->cursor->positions[0];
  } else if (query.cube_version) {
    version = *query.cube_version;
    snapshot = store_->GetVersion(outcome.cube, version);
    if (snapshot == nullptr) {
      return finish(Status::NotFound(
          "no version " + std::to_string(version) + " of cube '" +
          outcome.cube + "' (evicted or never published)"));
    }
  } else {
    snapshot = store_->Get(outcome.cube, &version);
    if (snapshot == nullptr) {
      return finish(Status::NotFound("no cube published under '" +
                                     outcome.cube + "'"));
    }
  }
  outcome.cube_version = version;
  prepare_span.End();

  // --- cache: hits replay through the sink, byte-identical to a live
  // stream (cursor-resumed pages are never cached or served from cache).
  if (cursor.empty()) {
    if (auto cached = cache_.Get(outcome.cube, version, outcome.canonical);
        cached && UsableFromCache(*cached, context)) {
      outcome.cache_hit = true;
      outcome.begun = true;
      ResultTrailer trailer;
      trailer.cells_scanned = cached->cells_scanned;
      if (!cached->exhausted) {
        trailer.next_cursor = EncodeCursor(
            Cursor{outcome.cube, version, query_hash, {cached->next_offset}});
      }
      WallTimer timer;
      // ReplayResult suppresses the cursor when the sink aborts
      // mid-replay: a partial stream has no resume point, exactly as on
      // the live path below.
      bool aborted = false;
      trace::Span replay_span(context.trace, "cache_replay");
      outcome.rows = ReplayResult(*cached, sink, &trailer, &aborted);
      replay_span.End();
      outcome.exec_ms = timer.Millis();
      outcome.cells_scanned = cached->cells_scanned;
      outcome.next_cursor = aborted ? "" : trailer.next_cursor;
      return finish(Status::OK());
    }
  }

  // --- execute on the caller's thread, streaming as the walks produce ----
  const bool try_cache =
      cursor.empty() && options_.cache_capacity > 0;
  CachingTee tee(sink, options_.cache_max_rows);
  RowSink& target = try_cache ? static_cast<RowSink&>(tee) : sink;

  WallTimer timer;
  const Executor executor(*snapshot, version);
  StreamStats stats;
  trace::Span execute_span(context.trace, "execute");
  Status status = executor.ExecuteToSink(query, context, target, &stats);
  execute_span.End();
  outcome.exec_ms = timer.Millis();
  outcome.begun = stats.begun;
  outcome.rows = stats.rows_emitted;
  outcome.cells_scanned = stats.cells_scanned;

  if (!status.ok()) {
    // A stream that failed after Begin (deadline mid-walk) is still closed
    // properly — the writer can terminate its output — but never gets a
    // resume cursor and never enters the cache.
    if (stats.begun) {
      ResultTrailer trailer;
      trailer.cells_scanned = stats.cells_scanned;
      target.Finish(trailer);
    }
    return finish(std::move(status));
  }

  ResultTrailer trailer;
  trailer.cells_scanned = stats.cells_scanned;
  if (!stats.exhausted && !stats.aborted) {
    trailer.next_cursor = EncodeCursor(
        Cursor{outcome.cube, version, query_hash, {stats.next_offset}});
  }
  outcome.next_cursor = trailer.next_cursor;
  target.Finish(trailer);

  if (try_cache && !stats.aborted && tee.cacheable()) {
    tee.collected().SetPagination(stats.exhausted, stats.next_offset);
    cache_.Put(outcome.cube, version, outcome.canonical,
               tee.collected().TakeResult());
  }
  return finish(Status::OK());
}

QueryService::PublishInfo QueryService::PublishAndWarm(
    const std::string& name, cube::SegregationCube cube) {
  PublishInfo info;
  // Publishes are rare and expensive enough to always trace: the span
  // summary (build.seal + warm phases) goes to the log so publish latency
  // regressions are attributable without flipping any flag.
  trace::TraceContext tc;
  // The warming set is decided by traffic up to now: the hottest cached
  // texts for this cube, across the versions currently in cache.
  std::vector<std::string> hottest = cache_.Hottest(name, kWarmTopN);
  info.version =
      store_->Publish(name, std::move(cube), options_.seal_threads, &tc);
  auto log_summary = [&] {
    SCUBE_LOG(Info) << "published '" << name << "' v" << info.version
                    << " warmed=" << info.warmed << " [" << tc.Summary()
                    << "]";
  };
  if (hottest.empty()) {
    log_summary();
    return info;
  }

  CubeStore::Snapshot snapshot = store_->GetVersion(name, info.version);
  if (snapshot == nullptr) {
    log_summary();
    return info;
  }

  // Warming runs on the publisher's thread, outside admission control: it
  // cannot be shed by the very overload it exists to soften.
  trace::Span warm_span(&tc, "warm");
  const Executor executor(*snapshot, info.version);
  for (const std::string& text : hottest) {
    auto parsed = Parse(text);
    if (!parsed.ok()) continue;
    // Version-pinned texts target their old snapshot, not the new one.
    if (parsed->cube_version) continue;
    auto result = executor.Execute(*parsed);
    if (!result.ok() || result->rows.size() > options_.cache_max_rows) {
      continue;
    }
    cache_.Put(name, info.version, Canonical(*parsed),
               std::move(result).value());
    ++info.warmed;
  }
  warm_span.End();
  log_summary();
  return info;
}

std::vector<CubeInfo> QueryService::ListCubes() const {
  std::vector<CubeInfo> out;
  for (const std::string& name : store_->Names()) {
    uint64_t version = 0;
    CubeStore::Snapshot snapshot = store_->Get(name, &version);
    if (snapshot == nullptr) continue;
    CubeInfo info;
    info.name = name;
    info.version = version;
    info.retained = store_->RetainedVersions(name);
    info.cells = snapshot->NumCells();
    info.defined_cells = snapshot->NumDefinedCells();
    out.push_back(std::move(info));
  }
  return out;
}

void QueryService::AppendBackendMetrics(std::string* out) const {
  trace::AppendGauge(out, "scubed_queue_depth",
                     static_cast<double>(queue_depth()),
                     "Statements executing now (the admission backlog)");
  ResultCache::Stats cache = cache_.stats();
  trace::AppendCounter(out, "scubed_cache_hits_total", cache.hits,
                       "Result-cache hits");
  trace::AppendCounter(out, "scubed_cache_misses_total", cache.misses,
                       "Result-cache misses");
  trace::AppendCounter(out, "scubed_cache_evictions_total", cache.evictions,
                       "Result-cache LRU evictions");
  uint64_t lookups = cache.hits + cache.misses;
  trace::AppendGauge(out, "scubed_cache_hit_rate",
                     lookups == 0 ? 0.0
                                  : static_cast<double>(cache.hits) /
                                        static_cast<double>(lookups),
                     "Result-cache hit fraction since start");
}

}  // namespace query
}  // namespace scube
