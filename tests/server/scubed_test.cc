// Loopback integration tests for the scubed front-end: a real server on
// an ephemeral port, driven over real sockets — request in, JSON out,
// correct cells; plus the 503 shed path, per-request deadlines, the exact
// first-line bound, and graceful Stop().

#include "server/server.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.h"
#include "net/socket.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "server/router.h"

namespace scube {
namespace server {
namespace {

cube::SegregationCube MakeCube(double f_north_dissimilarity) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);     // id 0
  catalog.GetOrAdd(1, "region", "north", AttributeKind::kContext);  // id 1
  catalog.GetOrAdd(2, "region", "south", AttributeKind::kContext);  // id 2

  auto make_cell = [](std::vector<fpm::ItemId> sa,
                      std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m,
                      double d) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                        fpm::Itemset(std::move(ca))};
    cell.context_size = t;
    cell.minority_size = m;
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] = d;
    return cell;
  };
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  cube.Insert(make_cell({0}, {}, 100, 40, 0.10));
  cube.Insert(make_cell({0}, {1}, 60, 25, 0.5));
  cube.Insert(make_cell({0}, {2}, 40, 15, f_north_dissimilarity));
  return cube;
}

/// A running server over a fresh store/service, bound to an ephemeral
/// loopback port.
struct Fixture {
  query::CubeStore store;
  query::QueryService service;
  ScubedServer server;

  explicit Fixture(query::ServiceOptions service_options = {},
                   ServerOptions server_options = MakeServerOptions())
      : service(&store, service_options),
        server(&service, server_options) {
    store.Publish("default", MakeCube(0.2));
    Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  static ServerOptions MakeServerOptions() {
    ServerOptions options;
    options.port = 0;
    options.loopback_only = true;
    options.num_connection_threads = 4;
    options.idle_poll_seconds = 0.1;  // fast Stop() in tests
    return options;
  }

  Result<net::HttpClientResponse> Call(const std::string& method,
                                       const std::string& target,
                                       const std::string& body = "") {
    auto connected = net::Connect("127.0.0.1", server.port());
    if (!connected.ok()) return connected.status();
    net::Socket socket = std::move(connected).value();
    net::BufferedReader reader(&socket);
    return net::RoundTrip(&socket, &reader, method, target, body);
  }
};

TEST(ScubedTest, StreamingRouteIsPostOnly) {
  // HEAD/GET must take the buffered route: the connection loop strips
  // HEAD bodies there, which the chunked path cannot do.
  net::HttpRequest req;
  req.path = "/query";
  req.params["stream"] = "1";
  req.method = "POST";
  EXPECT_TRUE(IsStreamingQuery(req));
  req.method = "HEAD";
  EXPECT_FALSE(IsStreamingQuery(req));
  req.method = "GET";
  EXPECT_FALSE(IsStreamingQuery(req));
}

TEST(ScubedTest, StreamedQueryIsChunkedAndMatchesBufferedRows) {
  Fixture fx;
  // Buffered answer first (and it seeds the cache for the streamed one —
  // cached replays must be byte-compatible with live streams).
  auto buffered = fx.Call("POST", "/query", "SLICE sa=sex=F");
  ASSERT_TRUE(buffered.ok()) << buffered.status();
  ASSERT_EQ(buffered->status, 200);

  auto streamed = fx.Call("POST", "/query?stream=1", "SLICE sa=sex=F");
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_EQ(streamed->status, 200);
  // Streamed responses are chunked, never Content-Length framed.
  EXPECT_EQ(streamed->headers.at("transfer-encoding"), "chunked");
  EXPECT_EQ(streamed->headers.count("content-length"), 0u);
  // Envelope: query echo, the result object, the trailing status code.
  EXPECT_NE(streamed->body.find("\"query\":\"SLICE sa=sex=F\""),
            std::string::npos)
      << streamed->body;
  EXPECT_NE(streamed->body.find("\"code\":\"OK\""), std::string::npos);
  EXPECT_NE(streamed->body.find("\"rows\":3"), std::string::npos);
  // The same three cells as the buffered path.
  for (const char* label : {"\"T\":100", "\"T\":60", "\"T\":40"}) {
    EXPECT_NE(streamed->body.find(label), std::string::npos) << label;
    EXPECT_NE(buffered->body.find(label), std::string::npos) << label;
  }
}

TEST(ScubedTest, StreamedCursorPaginationOverHttp) {
  Fixture fx;
  auto page1 = fx.Call("POST", "/query?stream=1", "SLICE sa=sex=F LIMIT 2");
  ASSERT_TRUE(page1.ok()) << page1.status();
  ASSERT_EQ(page1->status, 200);
  // The trailing chunk carries the resume cursor.
  size_t at = page1->body.find("\"next_cursor\":\"");
  ASSERT_NE(at, std::string::npos) << page1->body;
  at += std::string("\"next_cursor\":\"").size();
  std::string cursor = page1->body.substr(at, page1->body.find('"', at) - at);
  ASSERT_FALSE(cursor.empty());

  auto page2 = fx.Call("POST", "/query?stream=1&cursor=" + cursor,
                       "SLICE sa=sex=F LIMIT 2");
  ASSERT_TRUE(page2.ok()) << page2.status();
  EXPECT_EQ(page2->status, 200);
  // Page 1 held T=100 and T=60; page 2 holds the remaining T=40 cell and
  // is exhausted (no further cursor).
  EXPECT_NE(page2->body.find("\"T\":40"), std::string::npos) << page2->body;
  EXPECT_EQ(page2->body.find("\"next_cursor\""), std::string::npos)
      << page2->body;
  EXPECT_NE(page2->body.find("\"rows\":1"), std::string::npos);
}

TEST(ScubedTest, StreamedCsvDownloadHeadersAndCursorComment) {
  Fixture fx;
  auto resp = fx.Call("POST", "/query?stream=1&format=csv",
                      "SLICE sa=sex=F LIMIT 1");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->headers.at("content-type"), "text/csv; charset=utf-8");
  EXPECT_EQ(resp->headers.at("content-disposition"),
            "attachment; filename=\"scube_query.csv\"");
  EXPECT_EQ(resp->headers.at("transfer-encoding"), "chunked");
  EXPECT_NE(resp->body.find("sa,ca,T,M,units"), std::string::npos);
  EXPECT_NE(resp->body.find("# next_cursor: "), std::string::npos)
      << resp->body;
}

TEST(ScubedTest, StreamedKeepAliveServesFollowUpRequests) {
  Fixture fx;
  auto connected = net::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  net::BufferedReader reader(&socket);
  // Streamed request, then a buffered one on the same connection: the
  // chunked terminator must leave the stream at a clean message boundary.
  auto first = net::RoundTrip(&socket, &reader, "POST", "/query?stream=1",
                              "SLICE sa=sex=F");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->status, 200);
  auto second = net::RoundTrip(&socket, &reader, "GET", "/healthz");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->status, 200);
  EXPECT_NE(second->body.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ScubedTest, StreamedErrorsBeforeFirstByteAreBuffered) {
  Fixture fx;
  // Parse error: plain 400, not a chunked stream.
  auto bad = fx.Call("POST", "/query?stream=1", "FROBNICATE");
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->status, 400);
  EXPECT_EQ(bad->headers.count("transfer-encoding"), 0u);

  // So is a non-finite threshold, which strtod would read.
  auto nan_gap = fx.Call("POST", "/query?stream=1", "REVERSALS MINGAP nan");
  ASSERT_TRUE(nan_gap.ok()) << nan_gap.status();
  EXPECT_EQ(nan_gap->status, 400);
  EXPECT_NE(nan_gap->body.find("MINGAP must be a finite number"),
            std::string::npos)
      << nan_gap->body;

  // Unknown cube: 404.
  auto missing = fx.Call("POST", "/query?stream=1",
                         "TOPK 1 BY gini FROM nowhere");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  // Multi-statement bodies are a buffered-path feature.
  auto multi = fx.Call("POST", "/query?stream=1",
                       "SLICE sa=sex=F\nSLICE sa=sex=F\n");
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->status, 400);
  EXPECT_NE(multi->body.find("exactly one statement"), std::string::npos);

  // Bad cursors are rejected up front.
  auto garbage = fx.Call("POST", "/query?stream=1&cursor=garbage!",
                         "SLICE sa=sex=F");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->status, 400);
}

TEST(ScubedTest, MetricsExposeStreamingCounters) {
  Fixture fx;
  auto streamed = fx.Call("POST", "/query?stream=1", "SLICE sa=sex=F");
  ASSERT_TRUE(streamed.ok());
  auto metrics = fx.Call("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("scubed_streamed_requests_total 1"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("scubed_streamed_rows_total 3"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("scubed_streamed_bytes_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("scubed_streamed_errors_total 0"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("scubed_streamed_buffer_peak_bytes"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("scubed_buffered_body_peak_bytes"),
            std::string::npos);
}

TEST(ScubedTest, DebugTraceAttachesSpanTreeToBufferedEnvelope) {
  Fixture fx;
  // Without the param, no trace rides in the envelope.
  auto plain = fx.Call("POST", "/query", "SLICE sa=sex=F");
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->body.find("\"trace\""), std::string::npos);

  // A statement the plain call did NOT cache: a cache hit would answer
  // by replay and the execute span would rightly be absent.
  auto traced = fx.Call("POST", "/query?debug=trace",
                        "SLICE sa=sex=F | ca=region=north");
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_EQ(traced->status, 200);
  size_t at = traced->body.find("\"trace\":{\"trace_id\":\"");
  ASSERT_NE(at, std::string::npos) << traced->body;
  // The serving path's named phases are all present and closed (no
  // still-open spans leak into the rendered tree).
  for (const char* name : {"\"name\":\"admit\"", "\"name\":\"prepare\"",
                           "\"name\":\"execute\"", "\"name\":\"serialize\""}) {
    EXPECT_NE(traced->body.find(name), std::string::npos) << name;
  }
  // total_ms is a positive wall time; the exact value is scheduler noise,
  // but anything over a minute means a broken clock, not a slow box.
  at = traced->body.find("\"total_ms\":", at);
  ASSERT_NE(at, std::string::npos);
  double total_ms = std::atof(traced->body.c_str() + at +
                              std::string("\"total_ms\":").size());
  EXPECT_GT(total_ms, 0.0);
  EXPECT_LT(total_ms, 60000.0);
  // The envelope stays valid JSON with the trace spliced in.
  EXPECT_EQ(traced->body.find("]}\"trace\""), std::string::npos);
}

TEST(ScubedTest, DebugTraceAttachesSpanTreeToStreamedTail) {
  Fixture fx;
  auto resp = fx.Call("POST", "/query?stream=1&debug=trace",
                      "SLICE sa=sex=F");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->headers.at("transfer-encoding"), "chunked");
  // The span tree rides in the trailer chunk of the streamed envelope.
  size_t trace_at = resp->body.find("\"trace\":{\"trace_id\":\"");
  ASSERT_NE(trace_at, std::string::npos) << resp->body;
  for (const char* name :
       {"\"name\":\"first_byte\"", "\"name\":\"execute\""}) {
    EXPECT_NE(resp->body.find(name), std::string::npos) << name;
  }
  // The streamed-path trace must arrive after the rows, not before.
  EXPECT_LT(resp->body.find("\"rows\":3"), trace_at);

  // Plain streamed requests carry no trace.
  auto plain = fx.Call("POST", "/query?stream=1", "SLICE sa=sex=F");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->body.find("\"trace\""), std::string::npos);
}

TEST(ScubedTest, LatencyHistogramsAppearOnMetricsAfterTraffic) {
  Fixture fx;
  ASSERT_TRUE(fx.Call("POST", "/query", "SLICE sa=sex=F").ok());
  ASSERT_TRUE(fx.Call("POST", "/query?stream=1", "TOPK 1 BY dissimilarity "
                      "WHERE M >= 1").ok());
  auto metrics = fx.Call("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  const std::string& body = metrics->body;
  // Per-route request latency: one buffered query and one stream landed.
  EXPECT_NE(body.find("scubed_request_latency_seconds_count"
                      "{route=\"query\"} 1"),
            std::string::npos)
      << body.substr(0, 3000);
  EXPECT_NE(body.find("scubed_request_latency_seconds_count"
                      "{route=\"stream\"} 1"),
            std::string::npos);
  // Per-verb execution latency.
  EXPECT_NE(body.find("scubed_query_latency_seconds_count"
                      "{verb=\"slice\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("scubed_query_latency_seconds_count"
                      "{verb=\"topk\"} 1"),
            std::string::npos);
  // Streaming TTFB observed exactly once, with its histogram family
  // header present.
  EXPECT_NE(body.find("scubed_stream_ttfb_seconds_count 1"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE scubed_stream_ttfb_seconds histogram"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE scubed_request_latency_seconds histogram"),
            std::string::npos);
}

TEST(ScubedTest, SlowQueryLogCapturesOffendersOverHttp) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  ServerOptions server_options = Fixture::MakeServerOptions();
  server_options.slow_query_ms = 1e-6;  // everything is an offender
  server_options.slow_query_sink = sink;
  Fixture fx({}, server_options);

  ASSERT_TRUE(fx.Call("POST", "/query", "SLICE sa=sex=F").ok());
  ASSERT_TRUE(fx.Call("POST", "/query?stream=1", "SLICE sa=sex=F").ok());

  std::rewind(sink);
  char buf[16384];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, sink);
  buf[n] = '\0';
  std::string content(buf);
  // One line per offender, each with its route, the statement and the
  // span tree (slow-log mode forces tracing even without ?debug=trace).
  EXPECT_NE(content.find("\"route\":\"query\""), std::string::npos)
      << content;
  EXPECT_NE(content.find("\"route\":\"stream\""), std::string::npos);
  EXPECT_NE(content.find("\"query\":\"SLICE sa=sex=F\""), std::string::npos);
  EXPECT_NE(content.find("\"trace\":{\"trace_id\":\""), std::string::npos);
  EXPECT_NE(content.find("\"name\":\"execute\""), std::string::npos);

  // But the envelope stays clean: forced tracing is not ?debug=trace.
  auto resp = fx.Call("POST", "/query", "SLICE sa=sex=F");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->body.find("\"trace\""), std::string::npos);

  // The counter moved.
  auto metrics = fx.Call("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  // Match the sample line, not the "# HELP scubed_slow_queries_total …"
  // comment that precedes it.
  size_t at = metrics->body.find("\nscubed_slow_queries_total ");
  ASSERT_NE(at, std::string::npos);
  int slow = std::atoi(metrics->body.c_str() + at +
                       std::string("\nscubed_slow_queries_total ").size());
  EXPECT_GE(slow, 3);
  // The log holds the sink pointer: close only after the server stopped.
  fx.server.Stop();
  std::fclose(sink);
}

TEST(ScubedTest, HealthzAnswers) {
  Fixture fx;
  auto resp = fx.Call("GET", "/healthz");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"status\":\"ok\""), std::string::npos);
}

TEST(ScubedTest, QueryReturnsCorrectCellsAsJson) {
  Fixture fx;
  auto resp = fx.Call("POST", "/query", "SLICE sa=sex=F | ca=region=north");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  // The north cell: T=60, M=25, dissimilarity 0.5.
  EXPECT_NE(resp->body.find("\"code\":\"OK\""), std::string::npos)
      << resp->body;
  EXPECT_NE(resp->body.find("\"T\":60"), std::string::npos) << resp->body;
  EXPECT_NE(resp->body.find("\"M\":25"), std::string::npos) << resp->body;
  EXPECT_NE(resp->body.find("\"dissimilarity\":0.5"), std::string::npos)
      << resp->body;
}

TEST(ScubedTest, BatchAndCsvFormat) {
  Fixture fx;
  auto resp = fx.Call("POST", "/query?format=csv",
                      "SLICE sa=sex=F | ca=region=north\n"
                      "TOPK 1 BY dissimilarity WHERE M >= 1\n");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->headers.at("content-type"), "text/csv; charset=utf-8");
  // A browser hitting format=csv should get a download, not a page.
  EXPECT_EQ(resp->headers.at("content-disposition"),
            "attachment; filename=\"scube_query.csv\"");
  EXPECT_NE(resp->body.find("# query 0:"), std::string::npos) << resp->body;
  EXPECT_NE(resp->body.find("# query 1:"), std::string::npos) << resp->body;
  EXPECT_NE(resp->body.find("sa,ca,T,M,units"), std::string::npos);
  EXPECT_NE(resp->body.find("sex=F,region=north,60,25,2"),
            std::string::npos)
      << resp->body;
}

TEST(ScubedTest, PerQueryErrorsAreReportedInBand) {
  Fixture fx;
  auto resp = fx.Call("POST", "/query",
                      "TOPK 1 BY\nSLICE sa=sex=F | ca=region=north");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);  // batch-level OK, per-query codes in body
  EXPECT_NE(resp->body.find("\"code\":\"ParseError\""), std::string::npos)
      << resp->body;
  EXPECT_NE(resp->body.find("\"code\":\"OK\""), std::string::npos)
      << resp->body;
}

TEST(ScubedTest, BadRequestsAnswer4xx) {
  Fixture fx;
  auto empty = fx.Call("POST", "/query", "\n# comment only\n");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->status, 400);

  auto format = fx.Call("POST", "/query?format=xml", "TOPK 1 BY gini");
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(format->status, 400);

  auto missing = fx.Call("GET", "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  auto method = fx.Call("GET", "/query");
  ASSERT_TRUE(method.ok());
  EXPECT_EQ(method->status, 405);
}

TEST(ScubedTest, AdmissionShedsWith503AndRetryAfter) {
  query::ServiceOptions options;
  options.max_pending = 0;  // shed everything
  Fixture fx(options);
  auto resp = fx.Call("POST", "/query", "TOPK 1 BY dissimilarity");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 503);
  EXPECT_EQ(resp->headers.at("retry-after"), "1");
  EXPECT_NE(resp->body.find("admission queue full"), std::string::npos)
      << resp->body;
}

TEST(ScubedTest, DeadlineParamYieldsDeadlineExceededCode) {
  Fixture fx;
  // A microsecond deadline expires long before the index walk starts
  // (request parsing, admission and statement parsing alone dwarf it).
  auto resp = fx.Call("POST", "/query?deadline_ms=0.001",
                      "SLICE sa=sex=F | ca=region=north");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"code\":\"DeadlineExceeded\""),
            std::string::npos)
      << resp->body;
}

TEST(ScubedTest, NonPositiveDeadlineParamIsRejected) {
  Fixture fx;
  auto zero = fx.Call("POST", "/query?deadline_ms=0", "TOPK 1 BY gini");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->status, 400);
  auto negative = fx.Call("POST", "/query?deadline_ms=-5", "TOPK 1 BY gini");
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative->status, 400);
  // strtod accepts these; neither is a number of milliseconds.
  for (const char* value : {"nan", "inf", "-inf", "infinity"}) {
    auto resp = fx.Call("POST", std::string("/query?deadline_ms=") + value,
                        "TOPK 1 BY gini");
    ASSERT_TRUE(resp.ok()) << value;
    EXPECT_EQ(resp->status, 400) << value;
  }
}

TEST(ScubedTest, DeadlineParamBeyondTheClockRangeNeverExpires) {
  Fixture fx;
  // 1e13 ms and 1e300 ms lie past the steady clock's int64 range: the
  // deadline saturates instead of wrapping into the past.
  for (const char* value : {"1e13", "1e300"}) {
    for (const char* stream : {"", "&stream=1"}) {
      auto resp = fx.Call("POST",
                          std::string("/query?deadline_ms=") + value + stream,
                          "SLICE sa=sex=F | ca=region=north");
      ASSERT_TRUE(resp.ok()) << resp.status();
      EXPECT_EQ(resp->status, 200) << value << stream;
      EXPECT_NE(resp->body.find("\"code\":\"OK\""), std::string::npos)
          << value << stream << ": " << resp->body;
    }
  }
}

TEST(ScubedTest, CubesAndMetricsEndpoints) {
  Fixture fx;
  ASSERT_TRUE(fx.Call("POST", "/query", "TOPK 1 BY dissimilarity WHERE M >= 1")
                  .ok());

  auto cubes = fx.Call("GET", "/cubes");
  ASSERT_TRUE(cubes.ok());
  EXPECT_EQ(cubes->status, 200);
  EXPECT_NE(cubes->body.find("\"name\":\"default\""), std::string::npos);
  EXPECT_NE(cubes->body.find("\"version\":1"), std::string::npos);

  auto metrics = fx.Call("GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("scubed_queries_accepted_total 1"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("scubed_connections_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("scubed_cache_hit_rate"), std::string::npos);
}

TEST(ScubedTest, KeepAliveServesMultipleRequestsOnOneConnection) {
  Fixture fx;
  auto connected = net::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  net::BufferedReader reader(&socket);

  for (int i = 0; i < 3; ++i) {
    auto resp = net::RoundTrip(&socket, &reader, "POST", "/query",
                               "TOPK 1 BY dissimilarity WHERE M >= 1");
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->status, 200);
  }
}

/// Writes `wire` to a new connection in `chunk`-byte writes, then returns
/// the first line of the answer, or nullopt when the server closed the
/// connection without one.
std::optional<std::string> FirstAnswerLine(uint16_t port,
                                           const std::string& wire,
                                           size_t chunk) {
  auto connected = net::Connect("127.0.0.1", port);
  EXPECT_TRUE(connected.ok()) << connected.status();
  if (!connected.ok()) return std::nullopt;
  net::Socket socket = std::move(connected).value();
  for (size_t at = 0; at < wire.size(); at += chunk) {
    // A refused line closes the connection; the rest cannot be written.
    if (!socket.WriteAll(std::string_view(wire).substr(at, chunk)).ok()) {
      break;
    }
  }
  net::BufferedReader reader(&socket);
  auto line = reader.ReadLine();
  if (!line.ok()) return std::nullopt;
  return std::move(line).value();
}

// A first line of 65,536 bytes before its '\n' is answered, one of 65,537
// bytes is refused by closing the connection, and it makes no difference
// whether the bytes arrive in one write or one byte per write: for an
// HTTP request line (CR included), served, and for a SCubeQL statement,
// which is not a request line and is answered 400.
TEST(ScubedTest, FirstLineBoundIsExactWhateverTheArrival) {
  Fixture fx;
  const size_t bound = net::BufferedReader::kMaxLineBytes;
  for (size_t len : {bound, bound + 1}) {
    const std::string request_line = "GET /healthz?pad=";
    const std::string http =
        request_line +
        std::string(len - request_line.size() - std::strlen(" HTTP/1.1\r"),
                    'a') +
        " HTTP/1.1\r\n\r\n";
    const std::string statement = "SLICE sa=sex=F | ca=region=north";
    const std::string line =
        statement + std::string(len - statement.size(), ' ') + "\n";
    for (size_t chunk : {http.size(), size_t{1}}) {
      auto answer = FirstAnswerLine(fx.server.port(), http, chunk);
      if (len == bound) {
        EXPECT_EQ(answer.value_or("(closed)"), "HTTP/1.1 200 OK")
            << "chunk " << chunk;
      } else {
        EXPECT_FALSE(answer.has_value()) << "chunk " << chunk << ": "
                                         << *answer;
      }
      answer = FirstAnswerLine(fx.server.port(), line, chunk);
      if (len == bound) {
        EXPECT_EQ(answer.value_or("(closed)"), "HTTP/1.1 400 Bad Request")
            << "chunk " << chunk;
      } else {
        EXPECT_FALSE(answer.has_value()) << "chunk " << chunk << ": "
                                         << *answer;
      }
    }
  }
}

TEST(ScubedTest, StopIsGracefulAndIdempotent) {
  Fixture fx;
  ASSERT_TRUE(
      fx.Call("POST", "/query", "TOPK 1 BY dissimilarity WHERE M >= 1").ok());
  fx.server.Stop();
  fx.server.Stop();  // idempotent
  EXPECT_FALSE(fx.server.running());
  // The service outlives the server and still answers direct calls.
  auto direct = fx.service.ExecuteOne("TOPK 1 BY dissimilarity WHERE M >= 1");
  EXPECT_TRUE(direct.status.ok()) << direct.status;
}

}  // namespace
}  // namespace server
}  // namespace scube
