#include "server/metrics.h"

#include "common/string_util.h"

namespace scube {
namespace server {

namespace {

/// Lower-case per-verb label values, in query::Verb enumerator order.
constexpr const char* kVerbLabels[query::kNumVerbs] = {
    "slice", "dice", "rollup", "drilldown", "topk", "surprises", "reversals"};

void Counter(std::string* out, const char* name, uint64_t value,
             const char* help) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " counter\n";
  *out += name;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

void Gauge(std::string* out, const char* name, double value,
           const char* help) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " gauge\n";
  *out += name;
  *out += ' ';
  *out += ExactDoubleText(value);
  *out += '\n';
}

/// HELP/TYPE comment lines for one histogram family; emitted once per
/// family no matter how many labelled series follow.
void HistogramHeader(std::string* out, const char* name, const char* help) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += " histogram\n";
}

/// One labelled series of a histogram family: the cumulative _bucket
/// samples (le in seconds, "+Inf" last), then _sum and _count. `label` is
/// a complete `key="value"` pair, or "" for an unlabelled family.
void HistogramSeries(std::string* out, const char* name,
                     const std::string& label,
                     const trace::LatencyHistogram& hist) {
  auto bucket_line = [&](const std::string& le, uint64_t cumulative) {
    *out += name;
    *out += "_bucket{";
    if (!label.empty()) {
      *out += label;
      *out += ',';
    }
    *out += "le=\"";
    *out += le;
    *out += "\"} ";
    *out += std::to_string(cumulative);
    *out += '\n';
  };
  uint64_t cumulative = 0;
  for (size_t i = 0; i < trace::LatencyHistogram::kBucketBoundsMs.size();
       ++i) {
    cumulative += hist.bucket(i);
    bucket_line(
        ExactDoubleText(trace::LatencyHistogram::kBucketBoundsMs[i] / 1000.0),
        cumulative);
  }
  cumulative += hist.bucket(trace::LatencyHistogram::kNumBuckets - 1);
  bucket_line("+Inf", cumulative);

  auto sample = [&](const char* suffix, const std::string& value) {
    *out += name;
    *out += suffix;
    if (!label.empty()) {
      *out += '{';
      *out += label;
      *out += '}';
    }
    *out += ' ';
    *out += value;
    *out += '\n';
  };
  sample("_sum", ExactDoubleText(hist.sum_ms() / 1000.0));
  sample("_count", std::to_string(hist.count()));
}

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
    case Route::kLine:
      return "line";
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

  Counter(&out, "scubed_connections_total",
          metrics.connections.load(std::memory_order_relaxed),
          "TCP connections accepted");
  Counter(&out, "scubed_connections_shed_total",
          metrics.connections_shed.load(std::memory_order_relaxed),
          "Connections refused because the connection queue was full");
  Counter(&out, "scubed_connections_closed_total",
          metrics.connections_closed.load(std::memory_order_relaxed),
          "TCP connections closed (any reason)");
  Gauge(&out, "scubed_open_connections",
        static_cast<double>(
            metrics.open_connections.load(std::memory_order_relaxed)),
        "Currently open connections (accepted minus closed/shed)");
  Counter(&out, "scubed_idle_timeout_closes_total",
          metrics.idle_timeout_closes.load(std::memory_order_relaxed),
          "Connections dropped by the keep-alive idle timeout");
  Counter(&out, "scubed_header_deadline_closes_total",
          metrics.header_deadline_closes.load(std::memory_order_relaxed),
          "Connections dropped by the header-read deadline "
          "(slow-loris defence)");
  Counter(&out, "scubed_http_requests_total",
          metrics.http_requests.load(std::memory_order_relaxed),
          "HTTP requests handled");
  Counter(&out, "scubed_http_errors_total",
          metrics.http_errors.load(std::memory_order_relaxed),
          "HTTP responses with a 4xx/5xx status");
  Counter(&out, "scubed_line_requests_total",
          metrics.line_requests.load(std::memory_order_relaxed),
          "Line-protocol queries handled");
  Counter(&out, "scubed_streamed_requests_total",
          metrics.streamed_requests.load(std::memory_order_relaxed),
          "Chunked streaming responses begun (POST /query?stream=1)");
  Counter(&out, "scubed_streamed_rows_total",
          metrics.streamed_rows.load(std::memory_order_relaxed),
          "Result rows streamed to clients");
  Counter(&out, "scubed_streamed_bytes_total",
          metrics.streamed_bytes.load(std::memory_order_relaxed),
          "Wire bytes of streamed responses (including chunk framing)");
  Counter(&out, "scubed_streamed_errors_total",
          metrics.streamed_errors.load(std::memory_order_relaxed),
          "Streamed responses that failed after the 200 head left "
          "(error carried in the body tail)");
  Gauge(&out, "scubed_streamed_buffer_peak_bytes",
        static_cast<double>(
            metrics.streamed_buffer_peak.load(std::memory_order_relaxed)),
        "High-water mark of the streamed-response chunk buffer "
        "(bounded by the flush threshold, flat in the result size)");
  Gauge(&out, "scubed_buffered_body_peak_bytes",
        static_cast<double>(
            metrics.buffered_body_peak.load(std::memory_order_relaxed)),
        "High-water mark of buffered response bodies (the whole "
        "serialised answer)");

  query::ServiceStats stats = backend.stats();
  Counter(&out, "scubed_queries_accepted_total", stats.accepted,
          "Queries admitted past the admission queue bound");
  Counter(&out, "scubed_queries_rejected_total", stats.rejected,
          "Queries shed by admission control (HTTP 503)");
  Counter(&out, "scubed_queries_deadline_expired_total",
          stats.deadline_expired,
          "Queries answered DeadlineExceeded");
  Counter(&out, "scubed_queries_completed_total", stats.completed,
          "Admitted queries answered (any status)");

  // Backend-specific series: queue depth + cache counters (QueryService)
  // or per-shard fanout counters (scatter router) — emitted here so the
  // exposition's series order is stable across backends.
  backend.AppendBackendMetrics(&out);

  Counter(&out, "scubed_slow_queries_total",
          metrics.slow_queries.load(std::memory_order_relaxed),
          "Requests that crossed the slow-query threshold "
          "(--slow-query-ms; 0 when the slow-query log is disabled)");

  // Latency histograms. Every label value is emitted even at zero count,
  // so dashboards and the CI exposition check see the full series set
  // from the first scrape.
  HistogramHeader(&out, "scubed_request_latency_seconds",
                  "End-to-end request latency by route, handler entry to "
                  "last byte written");
  for (size_t i = 0; i < kNumRoutes; ++i) {
    HistogramSeries(&out, "scubed_request_latency_seconds",
                    std::string("route=\"") +
                        RouteLabel(static_cast<Route>(i)) + "\"",
                    metrics.route_latency[i]);
  }

  HistogramHeader(&out, "scubed_query_latency_seconds",
                  "Query execution latency by SCubeQL verb (cache hits "
                  "included)");
  for (size_t i = 0; i < query::kNumVerbs; ++i) {
    HistogramSeries(&out, "scubed_query_latency_seconds",
                    std::string("verb=\"") + kVerbLabels[i] + "\"",
                    metrics.verb_latency[i]);
  }

  HistogramHeader(&out, "scubed_stream_ttfb_seconds",
                  "Streaming time-to-first-byte: request entry until the "
                  "first response byte reaches the socket");
  HistogramSeries(&out, "scubed_stream_ttfb_seconds", "",
                  metrics.stream_ttfb);
  return out;
}

}  // namespace server
}  // namespace scube
