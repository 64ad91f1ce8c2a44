#include "replay.h"

#include <map>
#include <optional>

#include "common/csv.h"
#include "common/random.h"
#include "common/trace.h"
#include "cube/builder.h"
#include "etl/loaders.h"
#include "etl/table_builder.h"
#include "graph/projection.h"
#include "graph/threshold_clustering.h"
#include "http_client.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/row_sink.h"
#include "relational/transactions.h"

namespace perfbench {

using namespace scube;

namespace {

/// Statements of the explore sample replayed layer by layer.
constexpr size_t kExploreSample = 400;
/// Statements of that sample also replayed through the cluster.
constexpr size_t kClusterSample = 200;
/// DICE exports replayed (all six full TOPK exports always are).
constexpr size_t kDiceExports = 10;

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;  ///< end-to-end metric (workload) it should move
};

// Table order = print order. "moves" names the end-to-end metric as the
// untraced table prints it (README.md maps those to the gate metrics).
const LayerSpec kLayers[] = {
    {"common.csv.parse_ms", "ms", "publish_s (build)"},
    {"etl.load_ms", "ms", "publish_s (build)"},
    {"graph.project_ms", "ms", "publish_s (build)"},
    {"graph.cluster_ms", "ms", "publish_s (build)"},
    {"etl.final_table_ms", "ms", "publish_s (build)"},
    {"relational.encode_ms", "ms", "publish_s (build)"},
    {"fpm.mine_ms", "ms", "publish_s (build)"},
    {"cube.fill_ms", "ms", "publish_s (build)"},
    {"fpm.itemsets", "count", "publish_s, peak_rss_mb (build)"},
    {"fpm.useful_ratio", "ratio", "publish_s, peak_rss_mb (build)"},
    {"cube.cells", "count", "publish_s, peak_rss_mb (build); query_p99_ms (explore)"},
    {"cube.seal_ms", "ms", "publish_s, peak_rss_mb (build); setup_s (others)"},
    {"query.publish_ms", "ms", "publish_s (build)"},
    {"scube.cpu_per_wall", "ratio", "publish_s (build)"},
    {"query.parse_us", "us", "query_p50_ms, cpu_us_per_request (explore)"},
    {"query.execute_us.slice", "us", "query_p50_ms (explore)"},
    {"query.execute_us.dice", "us", "query_p50_ms (explore)"},
    {"query.execute_us.rollup", "us", "query_p50_ms (explore)"},
    {"query.execute_us.drilldown", "us", "query_p50_ms (explore)"},
    {"query.execute_us.topk", "us", "query_p50_ms (explore)"},
    {"query.execute_us.surprises", "us", "query_p99_ms (explore)"},
    {"query.execute_us.reversals", "us", "query_p99_ms (explore)"},
    {"query.serialize_us", "us", "query_p50_ms (explore)"},
    {"query.service_us", "us", "query_p50_ms, query_qps (explore)"},
    {"server.self_us", "us", "query_p50_ms, cpu_us_per_request (explore)"},
    {"query.cache_hit_ratio", "ratio", "query_p50_ms, cpu_us_per_request (explore)"},
    {"query.cache_evictions", "count", "query_p50_ms, cpu_us_per_request (explore)"},
    {"query.queue_depth", "count", "query_p99_ms (explore)"},
    {"query.cells_scanned_per_row", "ratio", "query_p99_ms, cpu_us_per_request (explore)"},
    {"query.walk_us_per_krow", "us/krow", "stream_rows_per_s (stream)"},
    {"query.render_us_per_krow", "us/krow", "stream_rows_per_s (stream)"},
    {"query.first_row_us", "us", "stream_ttfb_p50_ms (stream)"},
    {"server.wire_us_per_krow", "us/krow", "stream_rows_per_s, cpu_us_per_request (stream)"},
    {"net.bytes_per_row", "bytes", "stream_rows_per_s (stream)"},
    {"net.peak_buffer_bytes", "bytes", "peak_rss_mb (stream)"},
    {"cluster.partition_ms", "ms", "setup_s, peak_rss_mb (routed)"},
    {"cluster.ghost_ratio", "ratio", "setup_s, peak_rss_mb (routed)"},
    {"cluster.shard_ms", "ms", "query_p50_ms (routed)"},
    {"cluster.router_self_ms", "ms", "query_p50_ms (routed)"},
    {"cluster.router_wait_ms", "ms", "query_p99_ms, query_qps (routed)"},
    {"cluster.rows_emitted_per_received", "ratio", "cpu_us_per_request (routed)"},
    {"cluster.shard_failures", "count", "failed share (routed)"},
    {"trace.overhead_share", "ratio", "all end-to-end metrics (this workload)"},
    {"trace.unaccounted_share", "ratio", "(reconciliation, this workload)"},
};

double UsSince(Clock::time_point start) { return SecondsSince(start) * 1e6; }

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string("replay ") + what, result.status());
  return std::move(result).value();
}

/// Counts rows and notes when the first one arrived.
class CountingSink : public query::RowSink {
 public:
  explicit CountingSink(Clock::time_point start) : start_(start) {}
  bool Begin(const query::ResultHeader&) override { return true; }
  bool Row(const query::ResultRow&) override {
    if (rows_++ == 0) first_row_us_ = UsSince(start_);
    return true;
  }
  void Finish(const query::ResultTrailer&) override {}
  uint64_t rows() const { return rows_; }
  double first_row_us() const { return first_row_us_; }

 private:
  Clock::time_point start_;
  uint64_t rows_ = 0;
  double first_row_us_ = 0;
};

double Scrape(uint16_t port, const std::string& series) {
  return ScrapeSeries(FetchMetrics(port), series);
}

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// The published pipeline, one layer call at a time (mirrors
/// pipeline::RunPipeline for the benchmark's configuration).
struct BuildReplay {
  cube::SegregationCube cube;
  cube::CubeBuildStats stats;
  double seal_ms = 0;
  double publish_ms = 0;  ///< PublishAndWarm, seal included
  double cpu_per_wall = 0;
  uint64_t hash = 0;
  double builder_mine_ms = 0;  ///< the cube builder's own build.mine span
  double builder_fill_ms = 0;  ///< build.group + build.fill spans
};

BuildReplay ReplayBuild(const CsvInputs& csv, SpanLog* spans) {
  BuildReplay out;
  const pipeline::PipelineConfig config = BenchPipelineConfig();
  double cpu0 = ProcessCpuSeconds();
  Clock::time_point wall0 = Clock::now();
  ScopedSpan root(spans, "publish");

  std::optional<ScopedSpan> span(std::in_place, spans, "common.csv.parse", root.id());
  std::vector<CsvDocument> docs = Must(ParseCsvInputs(csv), "parse");
  span.emplace(spans, "etl.load", root.id());
  etl::ScubeInputs inputs =
      Must(etl::LoadInputsFromCsv(docs[0], csv.individual_schema, docs[1],
                                  csv.group_schema, docs[2]),
           "load");
  span.emplace(spans, "graph.project", root.id());
  graph::ProjectionOptions projection = config.projection;
  projection.date = config.date;
  projection.side = graph::ProjectionSide::kGroups;
  graph::ProjectionResult projected =
      Must(graph::ProjectBipartite(inputs.membership, projection), "project");
  span.emplace(spans, "graph.cluster", root.id());
  graph::Clustering clustering =
      Must(graph::ThresholdClustering(projected.graph, config.threshold), "cluster");
  span.emplace(spans, "etl.final_table", root.id());
  etl::TableBuilderOptions table_options = config.table_builder;
  table_options.date = config.date;
  relational::Table final_table =
      Must(etl::BuildFinalTable(inputs, clustering, table_options), "final table");
  span.emplace(spans, "relational.encode", root.id());
  relational::EncodedRelation encoded =
      Must(relational::EncodeForAnalysis(final_table), "encode");
  span.emplace(spans, "cube.build", root.id());
  const uint32_t build_id = span->id();
  trace::TraceContext builder_trace;
  const Clock::time_point builder_epoch = Clock::now();
  cube::CubeBuilderOptions cube_options = config.cube;
  cube_options.trace = &builder_trace;
  out.cube = Must(cube::BuildSegregationCube(encoded, cube_options, &out.stats), "cube");
  span.reset();
  // The cube builder's own spans, kept under their names as a cross-check.
  for (const trace::TraceContext::SpanView& s : builder_trace.Spans()) {
    auto at = [&](double ms) {
      return builder_epoch + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(ms));
    };
    spans->Record(s.name, at(s.start_ms), at(s.start_ms + s.duration_ms), build_id);
    std::string name = s.name;
    if (name == "build.mine") out.builder_mine_ms += s.duration_ms;
    if (name == "build.group" || name == "build.fill") out.builder_fill_ms += s.duration_ms;
  }

  // The seal alone, then the full publish (seal included) on a service
  // configured like the build workload's, alternated five times. The two
  // differ by far less than their run-to-run noise, so each keeps its
  // fastest round.
  Samples seal_ms, publish_ms;
  query::CubeStore store;
  query::ServiceOptions options;
  options.seal_threads = 0;
  query::QueryService publisher(&store, options);
  for (int round = 0; round < 5; ++round) {
    query::CubeStore seal_store;
    cube::SegregationCube copy = out.cube;
    ScopedSpan seal(spans, "cube.seal", root.id());
    Clock::time_point t0 = Clock::now();
    seal_store.Publish(kCubeName, std::move(copy), /*num_threads=*/0);
    seal_ms.Add(SecondsSince(t0) * 1e3);
    seal.End();
    copy = out.cube;
    ScopedSpan publish(spans, "query.publish_and_warm", root.id());
    t0 = Clock::now();
    publisher.PublishAndWarm(kCubeName, std::move(copy));
    publish_ms.Add(SecondsSince(t0) * 1e3);
  }
  out.seal_ms = seal_ms.Min();
  out.publish_ms = publish_ms.Min();
  root.End();
  out.cpu_per_wall = (ProcessCpuSeconds() - cpu0) / SecondsSince(wall0);
  out.hash = SnapshotHash(store);
  return out;
}

}  // namespace

ReplayOutput RunReplay(const ReplayInput& in, SpanLog* spans) {
  ReplayOutput out;
  std::map<std::string, double> v;
  const std::string& w = in.workload;

  // --- build layers ---------------------------------------------------------
  BuildReplay build = ReplayBuild(in.fixture->csv, spans);
  if (build.hash != in.fixture->cube_hash) {
    out.correct = false;
    out.detail = "layer-by-layer replay built a different cube";
  }
  auto median = [&](const char* name) { return spans->Durations(name).Median(); };
  v["common.csv.parse_ms"] = median("common.csv.parse");
  v["etl.load_ms"] = median("etl.load");
  v["graph.project_ms"] = median("graph.project");
  v["graph.cluster_ms"] = median("graph.cluster");
  v["etl.final_table_ms"] = median("etl.final_table");
  v["relational.encode_ms"] = median("relational.encode");
  v["fpm.mine_ms"] = build.stats.seconds_mining * 1e3;
  v["cube.fill_ms"] = (build.stats.seconds_grouping + build.stats.seconds_filling) * 1e3;
  v["fpm.itemsets"] = static_cast<double>(build.stats.mined_itemsets);
  v["fpm.useful_ratio"] =
      build.stats.mined_itemsets == 0
          ? 0
          : static_cast<double>(build.stats.cells_created) /
                static_cast<double>(build.stats.mined_itemsets);
  v["cube.cells"] = static_cast<double>(build.stats.cells_created);
  v["cube.seal_ms"] = build.seal_ms;
  v["query.publish_ms"] = build.publish_ms - build.seal_ms;
  v["scube.cpu_per_wall"] = build.cpu_per_wall;
  std::printf("# cross-check: cube-builder spans build.mine=%.1f ms, build.group+fill=%.1f ms"
              " (stats: mine %.1f ms, fill %.1f ms)\n",
              build.builder_mine_ms, build.builder_fill_ms, v["fpm.mine_ms"],
              v["cube.fill_ms"]);

  // --- query layers (sequential, in-process then over HTTP) ----------------
  std::unique_ptr<Node> node = StartNode(build.cube);
  auto view = node->store.Get(kCubeName);
  uint64_t version = node->store.Version(kCubeName);
  auto executor = node->store.GetExecutor(kCubeName, version);
  ExploreMix mix(*view, in.seed);
  std::vector<uint32_t> sample;
  {
    // The same statement stream client 0 of the timed loop draws.
    Rng rng(TimedClientSeed(in.seed, 0));
    for (size_t i = 0; i < kExploreSample; ++i) sample.push_back(mix.Next(rng));
  }
  uint64_t cells_scanned = 0, rows = 0;
  for (uint32_t id : sample) {
    std::optional<ScopedSpan> span(std::in_place, spans, "query.parse");
    query::Query q = Must(query::Parse(mix.text(id)), "parse statement");
    span.emplace(spans, std::string("query.execute.") + kVerbs[mix.verb(id)]);
    query::QueryResult result = Must(executor->Execute(q), "execute");
    span.emplace(spans, "query.serialize");
    std::string json = query::ToJson(result);
    span.reset();
    cells_scanned += result.cells_scanned;
    rows += result.rows.size();
  }
  auto median_us = [&](const std::string& name) {
    return spans->Durations(name).Median() * 1e3;
  };
  v["query.parse_us"] = median_us("query.parse");
  for (const char* verb : kVerbs) {
    v[std::string("query.execute_us.") + verb] =
        median_us(std::string("query.execute.") + verb);
  }
  v["query.serialize_us"] = median_us("query.serialize");
  v["query.cells_scanned_per_row"] =
      rows == 0 ? 0 : static_cast<double>(cells_scanned) / static_cast<double>(rows);

  // In-process service (own cache, cold) then HTTP on the node (its own
  // cache, cold): both see the same statement sequence.
  {
    query::QueryService service(&node->store);
    for (uint32_t id : sample) {
      ScopedSpan span(spans, "query.service");
      service.ExecuteOne(mix.text(id));
    }
  }
  {
    HttpClient client;
    client.Connect(node->port());
    for (uint32_t id : sample) {
      ScopedSpan span(spans, "server.http");
      HttpResult r = client.Request("POST", "/query", mix.text(id));
      span.End();
      if (!r.transport_ok || r.status != 200) {
        out.correct = false;
        out.detail = "HTTP replay failed for " + mix.text(id);
      }
    }
  }
  const Samples service_ms = spans->Durations("query.service");
  const Samples http_ms = spans->Durations("server.http");
  v["query.service_us"] = service_ms.Median() * 1e3;
  v["server.self_us"] = (http_ms.Median() - service_ms.Median()) * 1e3;
  double hits = Scrape(node->port(), "scubed_cache_hits_total");
  double misses = Scrape(node->port(), "scubed_cache_misses_total");
  double evictions = Scrape(node->port(), "scubed_cache_evictions_total");
  double queue_depth = Scrape(node->port(), "scubed_queue_depth");

  // --- stream layers --------------------------------------------------------
  StreamMix stream(*view);
  Samples first_row_us;
  uint64_t stream_rows = 0, stream_bytes = 0, http_rows = 0;
  {
    HttpClient client;
    client.Connect(node->port());
    size_t dice = 0;
    for (size_t id = 0; id < stream.size(); ++id) {
      const Export& e = stream.get(static_cast<uint32_t>(id));
      if (e.paged && dice++ >= kDiceExports) continue;
      query::Query q = Must(query::Parse(e.base), "parse export");
      for (bool csv : {false, true}) {
        ScopedSpan walk_span(spans, "query.walk");
        CountingSink counter(Clock::now());
        executor->ExecuteToSink(q, {}, counter);
        walk_span.End();
        first_row_us.Add(counter.first_row_us());
        stream_rows += counter.rows();

        auto discard = [](std::string_view) { return true; };
        std::unique_ptr<query::ResultWriter> writer;
        if (csv) {
          writer = std::make_unique<query::CsvWriter>(discard);
        } else {
          writer = std::make_unique<query::JsonWriter>(discard);
        }
        ScopedSpan render_span(spans, "query.walk_render");
        executor->ExecuteToSink(q, {}, *writer);
        writer->Finish(query::ResultTrailer{});
        render_span.End();

        // Over HTTP, paged exactly as the stream workload pages it.
        std::string cursor;
        do {
          std::string target = std::string("/query?stream=1&format=") +
                               (csv ? "csv" : "json");
          if (!cursor.empty()) target += "&cursor=" + UrlEncode(cursor);
          ScopedSpan http_span(spans, "server.stream_http");
          HttpResult r = client.Request("POST", target, e.sent);
          http_span.End();
          StreamPage page = ParseStreamPage(r.body, csv);
          if (!r.transport_ok || r.status != 200 || !page.ok) {
            out.correct = false;
            out.detail = "stream replay failed for " + e.sent;
            break;
          }
          http_rows += page.num_rows;
          stream_bytes += r.wire_body_bytes;
          cursor = page.next_cursor;
        } while (!cursor.empty());
      }
    }
  }
  const double walk_us = spans->Durations("query.walk").Sum() * 1e3;
  const double render_us = spans->Durations("query.walk_render").Sum() * 1e3;
  const double http_stream_us = spans->Durations("server.stream_http").Sum() * 1e3;
  double krows = static_cast<double>(stream_rows) / 1000.0;
  v["query.walk_us_per_krow"] = krows > 0 ? walk_us / krows : 0;
  v["query.render_us_per_krow"] = krows > 0 ? (render_us - walk_us) / krows : 0;
  v["query.first_row_us"] = first_row_us.Median();
  v["server.wire_us_per_krow"] = krows > 0 ? (http_stream_us - render_us) / krows : 0;
  v["net.bytes_per_row"] =
      http_rows == 0 ? 0 : static_cast<double>(stream_bytes) / static_cast<double>(http_rows);
  double peak_buffer = Scrape(node->port(), "scubed_streamed_buffer_peak_bytes");

  // --- cluster layers -------------------------------------------------------
  // Two identical clusters, both cold: one answers the routed pass, the
  // other the direct-to-shard pass, so neither pass warms the other's
  // shard caches.
  std::unique_ptr<ShardedCluster> routed = StartCluster(*view, 2);
  std::unique_ptr<ShardedCluster> direct = StartCluster(*view, 2);
  size_t owned = 0, ghosts = 0;
  for (size_t s = 0; s < routed->partition_stats.owned.size(); ++s) {
    owned += routed->partition_stats.owned[s];
    ghosts += routed->partition_stats.ghosts[s];
  }
  v["cluster.partition_ms"] = routed->partition_ms;
  v["cluster.ghost_ratio"] =
      owned == 0 ? 0 : static_cast<double>(ghosts) / static_cast<double>(owned);
  Samples routed_ms, shard_ms, router_self_ms;
  uint64_t routed_rows = 0, shard_rows = 0;
  {
    HttpClient router;
    router.Connect(routed->port());
    std::vector<std::unique_ptr<HttpClient>> shard_clients;
    for (auto& shard : direct->shards) {
      shard_clients.push_back(std::make_unique<HttpClient>());
      shard_clients.back()->Connect(shard->port());
    }
    for (size_t i = 0; i < kClusterSample && i < sample.size(); ++i) {
      const std::string& text = mix.text(sample[i]);
      ScopedSpan routed_span(spans, "cluster.routed");
      HttpResult r = router.Request("POST", "/query", text);
      routed_span.End();
      if (!r.transport_ok || r.status != 200) {
        out.correct = false;
        out.detail = "routed replay failed for " + text;
      }
      double rms = std::chrono::duration<double, std::milli>(r.done - r.sent).count();
      routed_ms.Add(rms);
      routed_rows += CountOccurrences(r.body, "{\"sa\":");
      double slowest = 0;
      for (auto& client : shard_clients) {
        ScopedSpan shard_span(spans, "cluster.shard");
        HttpResult s = client->Request("POST", "/query?stream=1&format=wire", text);
        shard_span.End();
        if (!s.transport_ok || s.status != 200) {
          out.correct = false;
          out.detail = "shard replay failed for " + text;
        }
        slowest = std::max(
            slowest, std::chrono::duration<double, std::milli>(s.done - s.sent).count());
        shard_rows += CountOccurrences(s.body, "\nR\t");
      }
      shard_ms.Add(slowest);
      router_self_ms.Add(rms - slowest);
    }
  }
  v["cluster.shard_ms"] = shard_ms.Median();
  v["cluster.router_self_ms"] = router_self_ms.Median();
  v["cluster.rows_emitted_per_received"] =
      shard_rows == 0 ? 0 : static_cast<double>(routed_rows) / static_cast<double>(shard_rows);
  double shard_failures = Scrape(routed->port(), "scubed_shard_failures_total");
  // Under routed load the router queues behind its single-flight lock;
  // with no routed load (other workloads) there is no wait to measure.
  v["cluster.router_wait_ms"] =
      w == "routed" ? in.untraced->latency_ms.Median() - routed_ms.Median() : 0;

  // --- load-dependent layers: from the traced load run when it has them --
  Fixture* f = in.fixture;
  if (w != "build") {
    hits = in.traced->cache_hits;
    misses = in.traced->cache_misses;
    evictions = in.traced->cache_evictions;
    queue_depth = in.traced->queue_depth_mean;
    if (w == "stream") {
      peak_buffer = Scrape(f->node->port(), "scubed_streamed_buffer_peak_bytes");
    }
    if (w == "routed") {
      shard_failures = Scrape(f->cluster->port(), "scubed_shard_failures_total");
    }
  }
  v["query.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  v["query.cache_evictions"] = evictions;
  v["query.queue_depth"] = queue_depth;
  v["net.peak_buffer_bytes"] = peak_buffer;
  v["cluster.shard_failures"] = shard_failures;

  // --- reconciliation and tracing overhead ---------------------------------
  const LoopResult& u = *in.untraced;
  const LoopResult& t = *in.traced;
  if (w == "build") {
    out.unit = "ms per publish";
    out.end_to_end = u.latency_ms.Median();
    for (const char* name :
         {"common.csv.parse_ms", "etl.load_ms", "graph.project_ms", "graph.cluster_ms",
          "etl.final_table_ms", "relational.encode_ms", "fpm.mine_ms", "cube.fill_ms",
          "cube.seal_ms", "query.publish_ms"}) {
      out.layer_sum += v[name];
    }
    out.overhead_share = t.latency_ms.Median() / u.latency_ms.Median() - 1;
  } else if (w == "stream") {
    // Per thousand rows on one connection: the loop's wall time is shared
    // by NumClients() connections.
    out.unit = "us per krow per connection";
    out.end_to_end = u.rows == 0 ? 0
                                 : u.wall_s * 1e6 * static_cast<double>(NumClients()) /
                                       (static_cast<double>(u.rows) / 1000.0);
    out.layer_sum = v["query.walk_us_per_krow"] + v["query.render_us_per_krow"] +
                    v["server.wire_us_per_krow"];
    out.overhead_share = t.ttfb_ms.Median() / u.ttfb_ms.Median() - 1;
  } else if (w == "explore") {
    // query.service (parse, execute, serialize, cache) plus server.self
    // is the sequential HTTP round trip; the rest of the loaded latency
    // is waiting.
    out.unit = "us per request (mean)";
    out.end_to_end = u.latency_ms.Mean() * 1e3;
    out.layer_sum = http_ms.Mean() * 1e3;
    out.overhead_share = t.latency_ms.Median() / u.latency_ms.Median() - 1;
  } else {
    out.unit = "ms per request (p50)";
    out.end_to_end = u.latency_ms.Median();
    out.layer_sum = v["cluster.shard_ms"] + v["cluster.router_self_ms"] +
                    v["cluster.router_wait_ms"];
    out.overhead_share = t.latency_ms.Median() / u.latency_ms.Median() - 1;
  }
  out.unaccounted_share =
      out.end_to_end > 0 ? 1 - out.layer_sum / out.end_to_end : 0;
  v["trace.overhead_share"] = out.overhead_share;
  v["trace.unaccounted_share"] = out.unaccounted_share;

  for (const LayerSpec& spec : kLayers) {
    out.layers.push_back(Metric{spec.name, v[spec.name], spec.unit, 0, spec.moves});
  }
  return out;
}

}  // namespace perfbench
