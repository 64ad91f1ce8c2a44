// scubed's request router and handlers, separated from connection
// plumbing so they can be unit-tested without sockets:
//
//   POST /query     execute a SCubeQL batch (one statement per body line):
//                   the statements stream in order on the connection
//                   thread, each answer captured and buffered into one
//                   envelope; ?format=json|csv, ?deadline_ms=N (a positive
//                   finite number) bounds the whole request instead of the
//                   per-statement default, ?debug=trace attaches the
//                   request's span breakdown to the JSON envelope (trailer
//                   chunk on the streamed path)
//   POST /query?stream=1
//                   stream ONE statement's answer with chunked transfer
//                   encoding: rows leave as the index walks produce them,
//                   O(1) response buffering. ?cursor=TOKEN resumes the
//                   next page of a LIMIT'ed answer against the same
//                   name@version snapshot. ?format=wire (streamed only)
//                   answers in the shard wire format with per-row merge
//                   keys — the scatter-gather router's shard protocol
//                   (query/wire_format.h).
//   GET  /cubes     published cube names, versions and sizes
//   GET  /healthz   liveness: {"status":"ok",...}
//   GET  /metrics   Prometheus text exposition (see metrics.h)
//
// Admission shedding surfaces as HTTP 503 with a Retry-After header.

#ifndef SCUBE_SERVER_ROUTER_H_
#define SCUBE_SERVER_ROUTER_H_

#include <string>

#include "net/http.h"
#include "query/backend.h"
#include "server/metrics.h"
#include "server/slow_query_log.h"

namespace scube {
namespace server {

/// \brief Everything a handler may touch (non-owning). The backend is
/// either a query::QueryService (single node) or a
/// cluster::ScatterExecutor (shard router) — handlers cannot tell.
struct RouterContext {
  query::QueryBackend* backend = nullptr;
  ServerMetrics* metrics = nullptr;

  /// Threshold-gated slow-query sink; null or disabled = off. When
  /// enabled, every query request is traced (the offending line needs its
  /// span tree).
  SlowQueryLog* slow_log = nullptr;

  /// Trace every request even without ?debug=trace (--trace flag).
  bool trace_all = false;
};

/// Dispatches one parsed HTTP request to its handler. Never throws; any
/// failure becomes a JSON error response with the appropriate status.
/// (POST /query?stream=1 is not routed here — connection loops call
/// HandleQueryStream so bytes can leave incrementally.)
net::HttpResponse HandleHttpRequest(const RouterContext& ctx,
                                    const net::HttpRequest& request);

/// True when `request` selects the streamed query path.
bool IsStreamingQuery(const net::HttpRequest& request);

/// Handles POST /query?stream=1: exactly one statement, answered over
/// chunked transfer encoding through `write` (the raw connection write).
/// The first chunk carries the envelope + result header metadata, rows
/// stream as produced, and the trailing chunk carries cells_scanned, the
/// resume cursor and the final status code. Errors caught before any byte
/// left (parse, admission, unknown cube) are answered as plain buffered
/// HTTP errors instead. The stream route's latency and counters reach
/// ctx.metrics before the response's last bytes leave. Returns false when
/// the transport failed and the connection must close.
bool HandleQueryStream(const RouterContext& ctx,
                       const net::HttpRequest& request, bool keep_alive,
                       const net::ChunkedWriter::WriteFn& write);

/// One QueryResponse as a JSON object, one per statement of a buffered
/// /query answer: {"query":...,"code":...,"cube":...,"version":...,
/// "cache_hit":...,"exec_ms":...,"result":{...}|null,"message":...}.
std::string ResponseToJson(const query::QueryResponse& response);

}  // namespace server
}  // namespace scube

#endif  // SCUBE_SERVER_ROUTER_H_
