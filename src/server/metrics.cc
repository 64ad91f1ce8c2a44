#include "server/metrics.h"

#include "common/string_util.h"

namespace scube {
namespace server {

namespace {

/// Lower-case per-verb label values, in query::Verb enumerator order.
constexpr const char* kVerbLabels[query::kNumVerbs] = {
    "slice", "dice", "rollup", "drilldown", "topk", "surprises", "reversals"};

}  // namespace

const char* RouteLabel(Route route) {
  switch (route) {
    case Route::kQuery:
      return "query";
    case Route::kStream:
      return "stream";
    case Route::kCubes:
      return "cubes";
    case Route::kHealthz:
      return "healthz";
    case Route::kMetrics:
      return "metrics";
    case Route::kOther:
      return "other";
  }
  return "other";
}

Route ClassifyRoute(const net::HttpRequest& request) {
  if (request.path == "/query") {
    return request.Param("stream") == "1" ? Route::kStream : Route::kQuery;
  }
  if (request.path == "/cubes") return Route::kCubes;
  if (request.path == "/healthz") return Route::kHealthz;
  if (request.path == "/metrics") return Route::kMetrics;
  return Route::kOther;
}

void ServerMetrics::ObserveVerb(const std::string& verb, double ms) {
  const std::string lowered = ToLower(verb);
  for (size_t i = 0; i < query::kNumVerbs; ++i) {
    if (lowered == kVerbLabels[i]) {
      verb_latency[i].Observe(ms);
      return;
    }
  }
  // Unknown verb strings (parse errors leave QueryResponse::verb empty)
  // carry no execution worth attributing — dropped by design.
}

std::string RenderPrometheus(const ServerMetrics& metrics,
                             const query::QueryBackend& backend) {
  std::string out;
  out.reserve(2048);

  trace::AppendCounter(
      &out, "scubed_connections_total",
      metrics.connections.load(std::memory_order_relaxed),
      "TCP connections accepted");
  trace::AppendCounter(
      &out, "scubed_connections_shed_total",
      metrics.connections_shed.load(std::memory_order_relaxed),
      "Connections refused because the connection queue was full");
  trace::AppendCounter(
      &out, "scubed_connections_closed_total",
      metrics.connections_closed.load(std::memory_order_relaxed),
      "TCP connections closed (any reason)");
  trace::AppendGauge(
      &out, "scubed_open_connections",
      static_cast<double>(
          metrics.open_connections.load(std::memory_order_relaxed)),
      "Currently open connections (accepted minus closed/shed)");
  trace::AppendCounter(
      &out, "scubed_idle_timeout_closes_total",
      metrics.idle_timeout_closes.load(std::memory_order_relaxed),
      "Connections dropped by the keep-alive idle timeout");
  trace::AppendCounter(
      &out, "scubed_header_deadline_closes_total",
      metrics.header_deadline_closes.load(std::memory_order_relaxed),
      "Connections dropped by the header-read deadline "
      "(slow-loris defence)");
  trace::AppendCounter(
      &out, "scubed_http_requests_total",
      metrics.http_requests.load(std::memory_order_relaxed),
      "HTTP requests handled");
  trace::AppendCounter(
      &out, "scubed_http_errors_total",
      metrics.http_errors.load(std::memory_order_relaxed),
      "HTTP responses with a 4xx/5xx status");
  trace::AppendCounter(
      &out, "scubed_streamed_requests_total",
      metrics.streamed_requests.load(std::memory_order_relaxed),
      "Chunked streaming responses begun (POST /query?stream=1)");
  trace::AppendCounter(
      &out, "scubed_streamed_rows_total",
      metrics.streamed_rows.load(std::memory_order_relaxed),
      "Result rows streamed to clients");
  trace::AppendCounter(
      &out, "scubed_streamed_bytes_total",
      metrics.streamed_bytes.load(std::memory_order_relaxed),
      "Wire bytes of streamed responses (including chunk framing)");
  trace::AppendCounter(
      &out, "scubed_streamed_errors_total",
      metrics.streamed_errors.load(std::memory_order_relaxed),
      "Streamed responses that failed after the 200 head left "
      "(error carried in the body tail)");
  trace::AppendGauge(
      &out, "scubed_streamed_buffer_peak_bytes",
      static_cast<double>(
          metrics.streamed_buffer_peak.load(std::memory_order_relaxed)),
      "High-water mark of the streamed-response chunk buffer "
      "(bounded by the flush threshold, flat in the result size)");
  trace::AppendGauge(
      &out, "scubed_buffered_body_peak_bytes",
      static_cast<double>(
          metrics.buffered_body_peak.load(std::memory_order_relaxed)),
      "High-water mark of buffered response bodies (the whole "
      "serialised answer)");

  query::ServiceStats stats = backend.stats();
  trace::AppendCounter(
      &out, "scubed_queries_accepted_total", stats.accepted,
      "Queries admitted past the admission queue bound");
  trace::AppendCounter(
      &out, "scubed_queries_rejected_total", stats.rejected,
      "Queries shed by admission control (HTTP 503)");
  trace::AppendCounter(
      &out, "scubed_queries_deadline_expired_total", stats.deadline_expired,
      "Queries answered DeadlineExceeded");
  trace::AppendCounter(
      &out, "scubed_queries_completed_total", stats.completed,
      "Admitted queries answered (any status)");

  // Backend-specific series: queue depth + cache counters (QueryService)
  // or per-shard fanout counters (scatter router) — emitted here so the
  // exposition's series order is stable across backends.
  backend.AppendBackendMetrics(&out);

  trace::AppendCounter(
      &out, "scubed_slow_queries_total",
      metrics.slow_queries.load(std::memory_order_relaxed),
      "Requests that crossed the slow-query threshold "
      "(--slow-query-ms; 0 when the slow-query log is disabled)");

  // Latency histograms. Every label value is emitted even at zero count,
  // so dashboards and the CI exposition check see the full series set
  // from the first scrape.
  trace::AppendFamilyHeader(&out, "scubed_request_latency_seconds",
                            "histogram",
                            "End-to-end request latency by route, handler "
                            "entry to last byte written");
  for (size_t i = 0; i < kNumRoutes; ++i) {
    trace::AppendHistogramSeries(&out, "scubed_request_latency_seconds",
                                 std::string("route=\"") +
                                     RouteLabel(static_cast<Route>(i)) + "\"",
                                 metrics.route_latency[i]);
  }

  trace::AppendFamilyHeader(&out, "scubed_query_latency_seconds", "histogram",
                            "Query execution latency by SCubeQL verb (cache "
                            "hits included)");
  for (size_t i = 0; i < query::kNumVerbs; ++i) {
    trace::AppendHistogramSeries(
        &out, "scubed_query_latency_seconds",
        std::string("verb=\"") + kVerbLabels[i] + "\"",
        metrics.verb_latency[i]);
  }

  trace::AppendFamilyHeader(&out, "scubed_stream_ttfb_seconds", "histogram",
                            "Streaming time-to-first-byte: request entry "
                            "until the first response byte reaches the "
                            "socket");
  trace::AppendHistogramSeries(&out, "scubed_stream_ttfb_seconds", "",
                               metrics.stream_ttfb);
  return out;
}

}  // namespace server
}  // namespace scube
