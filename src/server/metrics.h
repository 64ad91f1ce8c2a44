// ServerMetrics: scubed's monotonic counters, rendered for GET /metrics
// in Prometheus text exposition format. Connection/request counters live
// here; query admission/deadline counters plus backend-specific series
// (queue depth and cache counters for a QueryService, per-shard fanout
// series for a scatter router) come from the QueryBackend at render time.
//
// Thread-safety: counters are relaxed atomics (monotonic increments read
// at render time; exactness across a concurrent render is not promised),
// so there is no mutex here to annotate — audited as lock-free during the
// thread-safety annotation pass (common/sync.h).

#ifndef SCUBE_SERVER_METRICS_H_
#define SCUBE_SERVER_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/trace.h"
#include "net/http.h"
#include "query/ast.h"
#include "query/backend.h"

namespace scube {
namespace server {

/// Request routes with their own latency series
/// (scubed_request_latency_seconds{route="..."}).
enum class Route {
  kQuery = 0,    ///< POST /query (buffered)
  kStream,       ///< POST /query?stream=1 (chunked)
  kCubes,        ///< GET /cubes
  kHealthz,      ///< GET /healthz
  kMetrics,      ///< GET /metrics
  kOther,        ///< unmatched paths (404s and friends)
};
constexpr size_t kNumRoutes = 6;

/// The route's Prometheus label value ("query", "stream", …).
const char* RouteLabel(Route route);

/// Classifies a parsed request into a Route (the same decision the
/// router's dispatch makes, shared so latency attribution can't drift).
Route ClassifyRoute(const net::HttpRequest& request);

/// \brief Lock-free serving counters. One instance per ScubedServer.
struct ServerMetrics {
  std::atomic<uint64_t> connections{0};       ///< accepted TCP connections
  std::atomic<uint64_t> connections_shed{0};  ///< refused: conn queue full
  std::atomic<uint64_t> connections_closed{0};  ///< closed (any reason)
  std::atomic<uint64_t> http_requests{0};     ///< HTTP requests handled
  std::atomic<uint64_t> http_errors{0};       ///< 4xx/5xx responses

  /// Currently open connections (accepted minus closed/shed): the ones
  /// held by a handler thread plus the ones queued for one.
  std::atomic<int64_t> open_connections{0};

  /// Connections dropped by the keep-alive idle timeout (no request
  /// bytes for the idle window).
  std::atomic<uint64_t> idle_timeout_closes{0};

  /// Connections dropped by the header-read deadline: a peer that began
  /// a request but did not complete it within the total read cap
  /// (slow-loris defence).
  std::atomic<uint64_t> header_deadline_closes{0};

  // Streaming read path (POST /query?stream=1).
  std::atomic<uint64_t> streamed_requests{0};  ///< chunked responses begun
  std::atomic<uint64_t> streamed_rows{0};      ///< rows streamed to clients
  std::atomic<uint64_t> streamed_bytes{0};     ///< wire bytes incl. framing
  std::atomic<uint64_t> streamed_errors{0};    ///< failed after the 200 head

  /// High-water marks of per-response buffering, kept separate so the
  /// streamed bound stays visible: the streamed gauge is the chunk buffer
  /// (~flush threshold, flat in the result size), the buffered gauge is
  /// the largest whole serialised body — the number the streaming path
  /// exists to avoid.
  std::atomic<uint64_t> streamed_buffer_peak{0};
  std::atomic<uint64_t> buffered_body_peak{0};

  /// Requests whose total latency crossed the slow-query threshold (only
  /// counted when the slow-query log is enabled).
  std::atomic<uint64_t> slow_queries{0};

  /// End-to-end request latency per route, handler entry to last byte
  /// written (scubed_request_latency_seconds{route=...}).
  trace::LatencyHistogram route_latency[kNumRoutes];

  /// Execution latency per SCubeQL verb, cache hits included
  /// (scubed_query_latency_seconds{verb=...}).
  trace::LatencyHistogram verb_latency[query::kNumVerbs];

  /// Streaming time-to-first-byte: request entry until the first response
  /// byte is handed to the socket (scubed_stream_ttfb_seconds).
  trace::LatencyHistogram stream_ttfb;

  void ObserveRoute(Route route, double ms) {
    route_latency[static_cast<size_t>(route)].Observe(ms);
  }

  /// Records one verb execution; `verb` is QueryResponse::verb (any case;
  /// unknown/empty strings — parse errors — are dropped).
  void ObserveVerb(const std::string& verb, double ms);

  void Inc(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  void Add(std::atomic<uint64_t>& counter, uint64_t n) {
    counter.fetch_add(n, std::memory_order_relaxed);
  }

  /// Pairs every accept with Inc(connections); ConnClosed undoes it.
  void ConnOpened() {
    Inc(connections);
    open_connections.fetch_add(1, std::memory_order_relaxed);
  }

  void ConnClosed() {
    Inc(connections_closed);
    open_connections.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Raises `gauge` to at least `value` (monotonic high-water mark).
  void RaiseMax(std::atomic<uint64_t>& gauge, uint64_t value) {
    uint64_t seen = gauge.load(std::memory_order_relaxed);
    while (seen < value &&
           !gauge.compare_exchange_weak(seen, value,
                                        std::memory_order_relaxed)) {
    }
  }
};

/// Renders the full exposition: server counters plus the backend's
/// admission/deadline stats and its backend-specific series
/// (QueryBackend::AppendBackendMetrics).
std::string RenderPrometheus(const ServerMetrics& metrics,
                             const query::QueryBackend& backend);

}  // namespace server
}  // namespace scube

#endif  // SCUBE_SERVER_METRICS_H_
