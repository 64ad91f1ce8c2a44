// Unit tests for the Prometheus exposition (no sockets): histogram
// families render valid cumulative series with HELP/TYPE, route/verb
// classification matches the router's dispatch, and the slow-query log
// formats the one-line JSON contract CI archives.

#include "server/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/hashing.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "server/slow_query_log.h"

namespace scube {
namespace server {
namespace {

/// Counts non-overlapping occurrences of `needle`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

struct RenderFixture {
  query::CubeStore store;
  query::QueryService service{&store};
  ServerMetrics metrics;

  std::string Render() { return RenderPrometheus(metrics, service); }
};

TEST(MetricsTest, EveryMetricHasHelpAndType) {
  RenderFixture fx;
  std::string out = fx.Render();
  // Walk the exposition: every sample line's metric family must have been
  // introduced by HELP and TYPE lines earlier in the body.
  size_t pos = 0;
  while (pos < out.size()) {
    size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    std::string line = out.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of(" {"));
    // Histogram samples belong to the family without the suffix.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      size_t n = name.size(), s = std::string(suffix).size();
      if (n > s && name.compare(n - s, s, suffix) == 0 &&
          out.find("# TYPE " + name.substr(0, n - s) + " histogram") !=
              std::string::npos) {
        name = name.substr(0, n - s);
        break;
      }
    }
    EXPECT_NE(out.find("# HELP " + name + " "), std::string::npos) << name;
    EXPECT_NE(out.find("# TYPE " + name + " "), std::string::npos) << name;
  }
}

TEST(MetricsTest, HistogramFamiliesRenderEverySeriesEvenWhenEmpty) {
  RenderFixture fx;
  std::string out = fx.Render();
  // One series per route and per verb from the very first scrape, each
  // with 20 buckets (19 finite + +Inf), one _sum and one _count.
  for (const char* route :
       {"query", "stream", "cubes", "healthz", "metrics", "other"}) {
    std::string label = std::string("route=\"") + route + "\"";
    EXPECT_EQ(CountOf(out, "scubed_request_latency_seconds_bucket{" + label),
              20u)
        << route;
    EXPECT_EQ(CountOf(out, "scubed_request_latency_seconds_sum{" + label),
              1u);
    EXPECT_EQ(CountOf(out, "scubed_request_latency_seconds_count{" + label),
              1u);
  }
  for (const char* verb : {"slice", "dice", "rollup", "drilldown", "topk",
                           "surprises", "reversals"}) {
    EXPECT_EQ(CountOf(out, "scubed_query_latency_seconds_bucket{verb=\"" +
                               std::string(verb) + "\""),
              20u)
        << verb;
  }
  EXPECT_EQ(CountOf(out, "scubed_stream_ttfb_seconds_bucket{le="), 20u);
  // HELP/TYPE once per family, not per series.
  EXPECT_EQ(CountOf(out, "# TYPE scubed_request_latency_seconds histogram"),
            1u);
  EXPECT_EQ(CountOf(out, "# TYPE scubed_query_latency_seconds histogram"),
            1u);
}

TEST(MetricsTest, HistogramBucketsAreCumulativeInSeconds) {
  RenderFixture fx;
  fx.metrics.ObserveRoute(Route::kQuery, 0.3);   // <= 0.5 ms = 0.0005 s
  fx.metrics.ObserveRoute(Route::kQuery, 80.0);  // <= 100 ms = 0.1 s
  std::string out = fx.Render();
  // The 0.0005-second bucket holds one, the 0.1-second bucket both, and
  // +Inf (the total) both.
  EXPECT_NE(out.find("scubed_request_latency_seconds_bucket{route=\"query\","
                     "le=\"0.0005\"} 1"),
            std::string::npos)
      << out.substr(0, 2000);
  EXPECT_NE(out.find("scubed_request_latency_seconds_bucket{route=\"query\","
                     "le=\"0.1\"} 2"),
            std::string::npos);
  EXPECT_NE(out.find("scubed_request_latency_seconds_bucket{route=\"query\","
                     "le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(out.find("scubed_request_latency_seconds_count{route=\"query\"} "
                     "2"),
            std::string::npos);
  // _sum is in seconds: 80.3 ms = 0.0803 s.
  EXPECT_NE(out.find("scubed_request_latency_seconds_sum{route=\"query\"} "
                     "0.0803"),
            std::string::npos);
}

TEST(MetricsTest, ObserveVerbIsCaseInsensitiveAndDropsUnknown) {
  RenderFixture fx;
  fx.metrics.ObserveVerb("TOPK", 1.0);   // VerbToString's casing
  fx.metrics.ObserveVerb("slice", 2.0);  // already lower
  fx.metrics.ObserveVerb("", 3.0);       // parse error: dropped
  fx.metrics.ObserveVerb("nonsense", 4.0);
  std::string out = fx.Render();
  EXPECT_NE(out.find("scubed_query_latency_seconds_count{verb=\"topk\"} 1"),
            std::string::npos);
  EXPECT_NE(out.find("scubed_query_latency_seconds_count{verb=\"slice\"} 1"),
            std::string::npos);
  // Nothing else moved.
  EXPECT_EQ(CountOf(out, "scubed_query_latency_seconds_count{verb=\"\""), 0u);
}

TEST(MetricsTest, ClassifyRouteMatchesDispatch) {
  net::HttpRequest req;
  req.method = "POST";
  req.path = "/query";
  EXPECT_EQ(ClassifyRoute(req), Route::kQuery);
  req.params["stream"] = "1";
  EXPECT_EQ(ClassifyRoute(req), Route::kStream);
  req.params.clear();
  req.path = "/cubes";
  EXPECT_EQ(ClassifyRoute(req), Route::kCubes);
  req.path = "/healthz";
  EXPECT_EQ(ClassifyRoute(req), Route::kHealthz);
  req.path = "/metrics";
  EXPECT_EQ(ClassifyRoute(req), Route::kMetrics);
  req.path = "/nope";
  EXPECT_EQ(ClassifyRoute(req), Route::kOther);
  EXPECT_STREQ(RouteLabel(Route::kStream), "stream");
}

TEST(MetricsTest, SlowQueriesCounterIsExposed) {
  RenderFixture fx;
  fx.metrics.Inc(fx.metrics.slow_queries);
  std::string out = fx.Render();
  EXPECT_NE(out.find("scubed_slow_queries_total 1"), std::string::npos);
  EXPECT_NE(out.find("# TYPE scubed_slow_queries_total counter"),
            std::string::npos);
}

/// The value of the first sample line that starts with `prefix`.
std::string SampleValue(const std::string& out, const std::string& prefix) {
  size_t at = out.find("\n" + prefix);
  if (at == std::string::npos) return "";
  at += 1 + prefix.size();
  return out.substr(at, out.find('\n', at) - at);
}

TEST(MetricsTest, GaugesKeepEveryDigit) {
  RenderFixture fx;
  fx.metrics.RaiseMax(fx.metrics.buffered_body_peak, 1234567);
  std::string out = fx.Render();
  // Not "1.23457e+06": a byte count past six digits reads exactly.
  EXPECT_EQ(SampleValue(out, "scubed_buffered_body_peak_bytes "), "1234567");
}

TEST(MetricsTest, HistogramSumParsesBackExactly) {
  RenderFixture fx;
  // 1,234,567.891 ms: the _sum in seconds needs ten significant digits.
  fx.metrics.ObserveRoute(Route::kQuery, 1234567.891);
  const trace::LatencyHistogram& hist =
      fx.metrics.route_latency[static_cast<size_t>(Route::kQuery)];
  std::string text = SampleValue(
      fx.Render(), "scubed_request_latency_seconds_sum{route=\"query\"} ");
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(std::strtod(text.c_str(), nullptr), hist.sum_ms() / 1000.0)
      << text;
}

TEST(MetricsTest, BucketBoundLabelsAreUnchanged) {
  RenderFixture fx;
  std::string out = fx.Render();
  // The le label text scrapers key on, exactly as the 6-digit renderer
  // wrote it: every bound already reads back as itself.
  const std::vector<std::string> expected = {
      "1e-05", "2.5e-05", "5e-05", "0.0001", "0.00025", "0.0005", "0.001",
      "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5",
      "1", "2.5", "5", "10", "+Inf"};
  std::vector<std::string> labels;
  const std::string key = "scubed_stream_ttfb_seconds_bucket{le=\"";
  for (size_t at = out.find(key); at != std::string::npos;
       at = out.find(key, at + 1)) {
    size_t begin = at + key.size();
    labels.push_back(out.substr(begin, out.find('"', begin) - begin));
  }
  EXPECT_EQ(labels, expected);
}

// Pins the exposition bytes over a fresh QueryService: every HELP text,
// series order and number format of the counters, gauges and histograms
// (labelled and unlabelled) shows here. On a mismatch the test prints the
// whole exposition.
TEST(MetricsTest, ExpositionBytesAreUnchanged) {
  RenderFixture fx;
  fx.metrics.ConnOpened();
  fx.metrics.ConnOpened();
  fx.metrics.ConnClosed();
  fx.metrics.Add(fx.metrics.streamed_bytes, 98765);
  fx.metrics.RaiseMax(fx.metrics.buffered_body_peak, 1234567);
  fx.metrics.ObserveRoute(Route::kQuery, 0.3);
  fx.metrics.ObserveRoute(Route::kStream, 1234.5678);
  fx.metrics.ObserveVerb("TOPK", 12.0);
  fx.metrics.stream_ttfb.Observe(0.02);
  const std::string out = fx.Render();
  EXPECT_EQ(out.size(), 23591u) << out;
  EXPECT_EQ(HashBytes(out), 0xab59c6fccb99dcc2ULL) << out;
}

TEST(SlowQueryLogTest, FormatLineIsTheDocumentedJsonShape) {
  trace::TraceContext tc;
  { trace::Span span(&tc, "execute"); }
  SlowQueryRecord record;
  record.route = "query";
  record.query = "TOPK 5 BY \"gini\"";  // quote must be escaped
  record.code = "OK";
  record.total_ms = 87.25;
  record.rows = 1200;
  record.trace = &tc;
  std::string line = SlowQueryLog::FormatLine(record, 50.0);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"ts\":\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"slow_query_ms\":50"), std::string::npos);
  EXPECT_NE(line.find("\"route\":\"query\""), std::string::npos);
  EXPECT_NE(line.find("\"code\":\"OK\""), std::string::npos);
  EXPECT_NE(line.find("\"total_ms\":87.25"), std::string::npos);
  EXPECT_NE(line.find("\"rows\":1200"), std::string::npos);
  EXPECT_NE(line.find("\"query\":\"TOPK 5 BY \\\"gini\\\"\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"trace\":{\"trace_id\":\"" + tc.trace_id_hex()),
            std::string::npos);
  EXPECT_NE(line.find("\"name\":\"execute\""), std::string::npos);

  // Without a trace the key is absent entirely.
  record.trace = nullptr;
  EXPECT_EQ(SlowQueryLog::FormatLine(record, 50.0).find("\"trace\""),
            std::string::npos);
}

TEST(SlowQueryLogTest, ThresholdGatesAndSinkReceivesOneLine) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  SlowQueryLog log(10.0, sink);
  EXPECT_TRUE(log.enabled());

  SlowQueryRecord fast;
  fast.route = "query";
  fast.total_ms = 9.9;
  EXPECT_FALSE(log.MaybeLog(fast));

  SlowQueryRecord slow;
  slow.route = "stream";
  slow.query = "DICE sa=sex=F";
  slow.total_ms = 25.0;
  EXPECT_TRUE(log.MaybeLog(slow));

  std::rewind(sink);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, sink);
  buf[n] = '\0';
  std::string content(buf);
  EXPECT_EQ(CountOf(content, "\n"), 1u) << content;
  EXPECT_NE(content.find("\"route\":\"stream\""), std::string::npos);
  EXPECT_EQ(content.find("\"route\":\"query\""), std::string::npos);
  std::fclose(sink);
}

TEST(SlowQueryLogTest, DisabledLogIsANoOp) {
  SlowQueryLog log(0.0);
  EXPECT_FALSE(log.enabled());
  SlowQueryRecord record;
  record.total_ms = 1e9;
  EXPECT_FALSE(log.MaybeLog(record));
}

}  // namespace
}  // namespace server
}  // namespace scube
