// bench_server: loopback load against the scubed serving front-end.
//
// Five phases, all through real HTTP on 127.0.0.1:
//   1. closed loop   N keep-alive clients, back-to-back requests ->
//                    sustained qps, p50/p99 latency (the capacity probe)
//   2. open loop 2x  requests offered at twice the measured capacity ->
//                    shed rate (503s), p99 of *accepted* requests, which
//                    stays bounded by the deadline instead of queueing
//   3. publish       a new cube version is published mid-load with
//                    cache warming -> cache hit rate before/after, and
//                    every response stays well-formed
//   4. streaming     a synthetic wide cube (default 100k rows in one
//                    slice) served once buffered and once with chunked
//                    streaming (?stream=1) -> time-to-first-byte and the
//                    server's peak response buffer: the streamed peak is
//                    the chunk flush threshold regardless of row count,
//                    the buffered peak is the whole serialised body
//   5. sharded       the demo cube partitioned across 1 / 2 / 4 in-process
//                    shard scubeds behind a scatter-gather router, loaded
//                    with the cache-busting mix -> qps and latency per
//                    topology, and the answers stay well-formed end to end
//
// Writes the trajectory record BENCH_server.json next to the binary.
//
// Run:  ./bench_server [--quick] [--scale S] [--seconds T] [--rows R]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cluster/partition.h"
#include "cluster/scatter.h"
#include "common/timer.h"
#include "common/trace.h"
#include "cube/cube_view.h"
#include "datagen/scenarios.h"
#include "net/http.h"
#include "net/socket.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "scube/pipeline.h"
#include "server/server.h"

using namespace scube;

namespace {

struct LoadResult {
  uint64_t ok = 0;        ///< HTTP 200
  uint64_t shed = 0;      ///< HTTP 503
  uint64_t expired = 0;   ///< body contained a DeadlineExceeded code
  uint64_t errors = 0;    ///< transport or unexpected status
  double seconds = 0;

  double Qps() const {
    return seconds > 0 ? static_cast<double>(ok) / seconds : 0;
  }
  void Merge(const LoadResult& other) {
    ok += other.ok;
    shed += other.shed;
    expired += other.expired;
    errors += other.errors;
  }
};

const std::vector<std::string>& QueryMix() {
  static const std::vector<std::string> mix = {
      "TOPK 5 BY dissimilarity WHERE T >= 30",
      "SLICE sa=gender=F",
      "DICE sa=gender=F WHERE T >= 50",
      "DRILLDOWN sa=gender=F",
      "TOPK 3 BY gini",
      "SURPRISES BY dissimilarity MINDELTA 0.05 LIMIT 5",
      "ROLLUP sa=gender=F | ca=residence_region=north",
      "TOPK 5 BY dissimilarity WHERE T >= 30",  // repeat: cache food
  };
  return mix;
}

/// Cache-busting variant stream: distinct canonical texts, so every
/// request costs real executor work instead of a cache hit. Every 16th
/// is a SURPRISES scan to keep the executions honestly busy.
std::string CacheBustQuery(size_t n) {
  if (n % 16 == 0) {
    return "SURPRISES BY dissimilarity MINDELTA 0." +
           std::to_string(10 + n % 80) + " LIMIT 5";
  }
  return "TOPK 5 BY dissimilarity WHERE T >= " +
         std::to_string(30 + n % 997) + " AND M >= " +
         std::to_string(1 + n % 13);
}

/// One client worker: issues requests until the deadline; `pace_s` > 0
/// turns the closed loop into an open loop with that inter-send gap.
/// HTTP-200 latencies land in `hist` — the same atomic-bucket histogram
/// the server exports, shared across all clients of a phase (LoadResult
/// is merged by value; an atomic histogram cannot ride in it).
LoadResult RunClient(uint16_t port, double seconds, double pace_s,
                     size_t offset, bool cache_bust,
                     trace::LatencyHistogram* hist) {
  LoadResult out;
  auto connected = net::Connect("127.0.0.1", port);
  if (!connected.ok()) {
    out.errors = 1;
    return out;
  }
  net::Socket socket = std::move(connected).value();
  socket.SetNoDelay();
  net::BufferedReader reader(&socket);

  const auto& mix = QueryMix();
  WallTimer total;
  size_t i = offset;
  auto next_send = std::chrono::steady_clock::now();
  while (total.Seconds() < seconds) {
    if (pace_s > 0) {
      std::this_thread::sleep_until(next_send);
      next_send += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(pace_s));
    }
    const std::string query =
        cache_bust ? CacheBustQuery(i++ * 131 + offset)
                   : mix[i++ % mix.size()];
    WallTimer latency;
    auto resp = net::RoundTrip(&socket, &reader, "POST", "/query", query);
    if (!resp.ok()) {
      // The server may close a kept-alive connection during shutdown or
      // shedding; reconnect once and retry the slot.
      auto again = net::Connect("127.0.0.1", port);
      if (!again.ok()) {
        ++out.errors;
        break;
      }
      socket = std::move(again).value();
      socket.SetNoDelay();
      reader = net::BufferedReader(&socket);
      continue;
    }
    if (resp->status == 200) {
      ++out.ok;
      hist->Observe(latency.Millis());
      if (resp->body.find("\"DeadlineExceeded\"") != std::string::npos) {
        ++out.expired;
      }
    } else if (resp->status == 503) {
      ++out.shed;
    } else {
      ++out.errors;
    }
  }
  out.seconds = total.Seconds();
  return out;
}

LoadResult RunLoad(uint16_t port, size_t clients, double seconds,
                   double offered_qps, trace::LatencyHistogram* hist,
                   bool cache_bust = false) {
  std::vector<LoadResult> results(clients);
  std::vector<std::thread> threads;
  double pace_s =
      offered_qps > 0 ? static_cast<double>(clients) / offered_qps : 0;
  WallTimer timer;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      results[c] = RunClient(port, seconds, pace_s, c, cache_bust, hist);
    });
  }
  for (auto& t : threads) t.join();
  LoadResult merged;
  for (auto& r : results) merged.Merge(r);
  merged.seconds = timer.Seconds();
  return merged;
}

cube::SegregationCube BuildDemoCube(double scale, uint32_t seed_offset) {
  auto scenario = datagen::GenerateScenario(datagen::ItalianConfig(scale));
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    std::exit(1);
  }
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupClusters;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.min_support = 20 + seed_offset;  // v2 differs slightly
  config.cube.mode = fpm::MineMode::kClosed;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result->cube);
}

double HitRate(const query::ResultCache::Stats& stats) {
  uint64_t total = stats.hits + stats.misses;
  return total == 0 ? 0.0
                    : static_cast<double>(stats.hits) /
                          static_cast<double>(total);
}

// ---------------------------------------------------------------------------
// Phase 4: streamed vs buffered serving of one very wide answer.
// ---------------------------------------------------------------------------

/// A synthetic cube whose `SLICE sa=group=minority` answer has exactly
/// `rows` rows: one SA item shared by every cell, one distinct CA item
/// per cell. Built directly (no mining) so the bench scales to 100k rows
/// in well under a second.
cube::SegregationCube BuildWideCube(size_t rows) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  fpm::ItemId sa_item =
      catalog.GetOrAdd(0, "group", "minority", AttributeKind::kSegregation);
  std::vector<fpm::ItemId> ca_items;
  ca_items.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    ca_items.push_back(catalog.GetOrAdd(1, "ctx", "c" + std::to_string(i),
                                        AttributeKind::kContext));
  }
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  for (size_t i = 0; i < rows; ++i) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{fpm::Itemset({sa_item}),
                                        fpm::Itemset({ca_items[i]})};
    cell.context_size = 100 + i % 1000;
    cell.minority_size = 10 + i % 90;
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] =
        static_cast<double>(i % 1000) / 1000.0;
    cube.Insert(cell);
  }
  return cube;
}

/// One timed HTTP request: TTFB is the wall time until the status line is
/// readable, total includes draining the (possibly chunked) body.
struct TimedResponse {
  int status = 0;
  double ttfb_ms = 0;
  double total_ms = 0;
  size_t body_bytes = 0;
  bool ok = false;
};

TimedResponse TimedRequest(uint16_t port, const std::string& target,
                           const std::string& body) {
  TimedResponse out;
  auto connected = net::Connect("127.0.0.1", port);
  if (!connected.ok()) return out;
  net::Socket socket = std::move(connected).value();
  socket.SetNoDelay();
  net::BufferedReader reader(&socket);
  const std::string request =
      net::SerializeRequest("POST", target, body, "text/plain");
  WallTimer timer;
  if (!socket.WriteAll(request).ok()) return out;
  auto status_line = reader.ReadLine();
  if (!status_line.ok()) return out;
  out.ttfb_ms = timer.Millis();
  auto resp = net::ReadHttpResponseAfterStatusLine(&reader, *status_line);
  if (!resp.ok()) return out;
  out.total_ms = timer.Millis();
  out.status = resp->status;
  out.body_bytes = resp->body.size();
  out.ok = resp->status == 200;
  return out;
}

/// Reads one numeric metric value from a Prometheus exposition body.
double MetricValue(const std::string& exposition, const std::string& name) {
  size_t pos = 0;
  while ((pos = exposition.find(name, pos)) != std::string::npos) {
    size_t line_start = exposition.rfind('\n', pos);
    line_start = line_start == std::string::npos ? 0 : line_start + 1;
    if (exposition[line_start] == '#') {  // HELP/TYPE lines
      pos += name.size();
      continue;
    }
    size_t space = exposition.find(' ', pos);
    if (space == std::string::npos) return 0;
    return std::atof(exposition.c_str() + space + 1);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Phase 5: sharded scatter-gather serving, 1 vs 2 vs 4 shards.
// ---------------------------------------------------------------------------

/// One in-process shard scubed: its slice of the demo cube behind a real
/// HTTP server on a loopback port, exactly what a deployment would run.
struct ShardNode {
  query::CubeStore store;
  std::unique_ptr<query::QueryService> service;
  std::unique_ptr<server::ScubedServer> server;
};

struct ShardedResult {
  size_t shards = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
};

/// Partitions the sealed demo cube into `n` shards, serves each from its
/// own in-process scubed, fronts them with a ScatterExecutor behind a
/// router scubed, and drives the cache-busting closed loop through the
/// router. The router runs the clients' statements concurrently, each on
/// its own shard connections; per-request latency (fan-out + merge) is
/// the headline number.
ShardedResult RunShardedPhase(const cube::CubeView& global, size_t n,
                              size_t clients, double seconds) {
  cluster::PartitionOptions partition_options;
  partition_options.num_shards = n;
  std::vector<cube::SegregationCube> parts =
      cluster::PartitionCube(global, partition_options);

  server::ServerOptions shard_server_options;
  shard_server_options.port = 0;
  shard_server_options.loopback_only = true;
  shard_server_options.num_connection_threads = 4;
  shard_server_options.idle_poll_seconds = 0.1;

  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::vector<cluster::ShardSpec> specs;
  for (size_t i = 0; i < n; ++i) {
    auto node = std::make_unique<ShardNode>();
    node->store.Publish("default", std::move(parts[i]));
    query::ServiceOptions service_options;
    service_options.cache_capacity = 0;  // measure execution, not replay
    node->service =
        std::make_unique<query::QueryService>(&node->store, service_options);
    node->server = std::make_unique<server::ScubedServer>(
        node->service.get(), shard_server_options);
    Status started = node->server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "shard %zu start: %s\n", i,
                   started.ToString().c_str());
      std::exit(1);
    }
    cluster::ShardSpec spec;
    spec.replicas.push_back(
        cluster::ShardEndpoint{"127.0.0.1", node->server->port()});
    specs.push_back(std::move(spec));
    nodes.push_back(std::move(node));
  }

  cluster::ScatterExecutor scatter(std::move(specs));
  server::ServerOptions router_options = shard_server_options;
  router_options.num_connection_threads = clients * 2;
  server::ScubedServer router(&scatter, router_options);
  Status started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "router start: %s\n", started.ToString().c_str());
    std::exit(1);
  }

  trace::LatencyHistogram hist;
  LoadResult load = RunLoad(router.port(), clients, seconds, 0, &hist,
                            /*cache_bust=*/true);

  router.Stop();
  for (auto& node : nodes) {
    node->server->Stop();
    node->service->Shutdown();
  }

  ShardedResult out;
  out.shards = n;
  out.qps = load.Qps();
  out.p50_ms = hist.Quantile(0.50);
  out.p99_ms = hist.Quantile(0.99);
  out.ok = load.ok;
  out.errors = load.errors;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.002;
  double seconds = 3.0;
  size_t clients = 4;
  double deadline_ms = 250;
  // The streaming phase keeps its full width under --quick: the point is
  // that a 100k-row answer streams in O(1) buffer, and the synthetic cube
  // builds in well under a second.
  size_t rows = 100000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = static_cast<size_t>(std::atol(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (rows < 100) rows = 100;
  if (quick) {
    seconds = 0.6;
    clients = 2;
    scale = 0.0015;
  }

  std::printf("building demo cubes (scale %g)...\n", scale);
  cube::SegregationCube cube_v1 = BuildDemoCube(scale, 0);
  cube::SegregationCube cube_v2 = BuildDemoCube(scale, 1);

  query::CubeStore store;
  query::ServiceOptions service_options;
  service_options.cache_capacity = 512;
  service_options.max_pending = 8;  // shallow: bounded latency
  service_options.default_deadline_ms = deadline_ms;
  service_options.warm_top_n = 8;
  query::QueryService service(&store, service_options);
  service.PublishAndWarm("default", std::move(cube_v1));

  server::ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.loopback_only = true;
  // Connection capacity must exceed the admission bound, so that
  // query-level admission (not the connection pool) is what saturates.
  server_options.num_connection_threads = clients * 16;
  server_options.max_queued_connections = clients * 16;
  server::ScubedServer server(&service, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("scubed on 127.0.0.1:%u — queue bound %zu, deadline %.0f ms\n\n",
              server.port(), service_options.max_pending, deadline_ms);

  // --- phase 1: closed loop (hot mix, then cache-busting capacity probe) --
  std::printf("[closed loop, hot mix] %zu clients, %.1f s\n", clients,
              seconds);
  trace::LatencyHistogram hot_hist;
  LoadResult hot = RunLoad(server.port(), clients, seconds, 0, &hot_hist);
  std::printf("  %llu ok, %llu shed, %llu errors | %.0f qps | "
              "p50 %.2f ms, p99 %.2f ms (cache-served)\n",
              static_cast<unsigned long long>(hot.ok),
              static_cast<unsigned long long>(hot.shed),
              static_cast<unsigned long long>(hot.errors), hot.Qps(),
              hot_hist.Quantile(0.50), hot_hist.Quantile(0.99));

  // The capacity probe must *saturate* the service, not measure one
  // connection's round-trip latency: enough concurrent closed-loop
  // clients that the service rate, not the RTT, is the limit.
  size_t probe_clients = clients * 8;
  std::printf("[closed loop, cache-busting] %zu clients, %.1f s\n",
              probe_clients, seconds);
  trace::LatencyHistogram closed_hist;
  LoadResult closed = RunLoad(server.port(), probe_clients, seconds, 0,
                              &closed_hist, /*cache_bust=*/true);
  double capacity = closed.Qps();
  std::printf("  %llu ok, %llu shed, %llu errors | %.0f qps sustained | "
              "p50 %.2f ms, p99 %.2f ms (executed)\n\n",
              static_cast<unsigned long long>(closed.ok),
              static_cast<unsigned long long>(closed.shed),
              static_cast<unsigned long long>(closed.errors), capacity,
              closed_hist.Quantile(0.50), closed_hist.Quantile(0.99));

  // --- phase 2: open loop at 2x capacity ----------------------------------
  double offered = 2.0 * capacity;
  size_t open_clients = clients * 16;  // enough senders to hold the rate
  std::printf("[open loop] offering %.0f qps (2x sustained capacity), "
              "%zu senders, %.1f s\n", offered, open_clients, seconds);
  trace::LatencyHistogram open_hist;
  LoadResult open = RunLoad(server.port(), open_clients, seconds, offered,
                            &open_hist, /*cache_bust=*/true);
  uint64_t answered = open.ok + open.shed;
  double shed_rate = answered == 0
                         ? 0.0
                         : static_cast<double>(open.shed) /
                               static_cast<double>(answered);
  double open_p99 = open_hist.Quantile(0.99);
  std::printf("  %llu ok, %llu shed (%.0f%%), %llu deadline-expired, "
              "%llu errors\n",
              static_cast<unsigned long long>(open.ok),
              static_cast<unsigned long long>(open.shed), 100 * shed_rate,
              static_cast<unsigned long long>(open.expired),
              static_cast<unsigned long long>(open.errors));
  std::printf("  accepted p99 %.2f ms (deadline %.0f ms): overload sheds "
              "with 503 instead of queueing unboundedly\n\n",
              open_p99, deadline_ms);

  // --- phase 3: publish + warm during load --------------------------------
  std::printf("[publish during load] publishing v2 mid-load with cache "
              "warming\n");
  auto before_stats = service.cache_stats();
  std::atomic<bool> publish_done{false};
  query::QueryService::PublishInfo publish_info;
  std::thread publisher([&] {
    // Let the load warm the cache first, then publish.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds * 0.4));
    publish_info = service.PublishAndWarm("default", std::move(cube_v2));
    publish_done.store(true);
  });
  trace::LatencyHistogram publish_hist;
  LoadResult publish_load =
      RunLoad(server.port(), clients, seconds, capacity * 0.8, &publish_hist);
  publisher.join();
  auto after_stats = service.cache_stats();
  query::ResultCache::Stats window;
  window.hits = after_stats.hits - before_stats.hits;
  window.misses = after_stats.misses - before_stats.misses;
  std::printf("  published v%llu, warmed %zu entries | load: %llu ok, "
              "%llu errors | window hit rate %.0f%%\n",
              static_cast<unsigned long long>(publish_info.version),
              publish_info.warmed,
              static_cast<unsigned long long>(publish_load.ok),
              static_cast<unsigned long long>(publish_load.errors),
              100 * HitRate(window));
  bool warmed_ok = publish_info.version == 2 && publish_info.warmed > 0;
  std::printf("  cache warming %s: the hottest texts were re-executed "
              "against v2 at publish time\n\n",
              warmed_ok ? "worked" : "FAILED");

  server.Stop();
  service.Shutdown();

  // --- phase 4: streamed vs buffered wide answer --------------------------
  std::printf("[streaming] building wide cubes (%zu and %zu rows)...\n",
              rows, rows / 10);
  query::CubeStore wide_store;
  query::ServiceOptions wide_options;
  wide_options.cache_capacity = 0;  // measure execution, not cache replay
  query::QueryService wide_service(&wide_store, wide_options);
  wide_store.Publish("default", BuildWideCube(rows));
  wide_store.Publish("small", BuildWideCube(rows / 10));

  server::ServerOptions wide_server_options;
  wide_server_options.port = 0;
  wide_server_options.loopback_only = true;
  server::ScubedServer wide_server(&wide_service, wide_server_options);
  started = wide_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  const uint16_t wide_port = wide_server.port();
  const std::string wide_query = "SLICE sa=group=minority";

  auto read_peak = [&](const char* gauge) -> double {
    auto connected = net::Connect("127.0.0.1", wide_port);
    if (!connected.ok()) return -1;
    net::Socket socket = std::move(connected).value();
    net::BufferedReader reader(&socket);
    auto resp = net::RoundTrip(&socket, &reader, "GET", "/metrics");
    if (!resp.ok()) return -1;
    return MetricValue(resp->body, gauge);
  };

  // Stream the small answer first: the streamed peak after it is the
  // chunk flush bound. Streaming the 10x answer next must not move it —
  // that is the O(1) claim, measured.
  TimedResponse small_stream = TimedRequest(
      wide_port, "/query?stream=1", wide_query + " FROM small");
  double peak_small = read_peak("scubed_streamed_buffer_peak_bytes");
  TimedResponse streamed =
      TimedRequest(wide_port, "/query?stream=1", wide_query);
  double peak_streamed = read_peak("scubed_streamed_buffer_peak_bytes");
  TimedResponse buffered = TimedRequest(wide_port, "/query", wide_query);
  double peak_buffered = read_peak("scubed_buffered_body_peak_bytes");
  wide_server.Stop();
  wide_service.Shutdown();

  std::printf("  streamed  %zu rows: TTFB %.2f ms, total %.2f ms, "
              "%zu body bytes, peak buffer %.0f B\n",
              rows, streamed.ttfb_ms, streamed.total_ms,
              streamed.body_bytes, peak_streamed);
  std::printf("  streamed  %zu rows: HTTP %d, peak buffer %.0f B "
              "(unchanged by 10x more rows: O(1))\n",
              rows / 10, small_stream.status, peak_small);
  std::printf("  buffered  %zu rows: TTFB %.2f ms, total %.2f ms, "
              "%zu body bytes, peak buffer %.0f B\n",
              rows, buffered.ttfb_ms, buffered.total_ms,
              buffered.body_bytes, peak_buffered);
  std::printf("  TTFB streamed/buffered: %.2f/%.2f ms | peak buffer "
              "ratio %.0fx\n\n",
              streamed.ttfb_ms, buffered.ttfb_ms,
              peak_streamed > 0 ? peak_buffered / peak_streamed : 0);

  // The streamed peak is bounded by the chunk flush threshold (plus one
  // coalesced write), independent of the row count; the buffered peak is
  // the whole serialised body.
  const double flush_bound = 2.0 * net::ChunkedWriter::kDefaultFlushBytes;
  bool streaming_ok =
      small_stream.ok && streamed.ok && buffered.ok &&
      streamed.body_bytes > buffered.body_bytes / 2 &&  // same rows served
      peak_streamed > 0 && peak_streamed <= flush_bound &&
      std::abs(peak_streamed - peak_small) <= 4096 &&
      peak_buffered >= 0.5 * static_cast<double>(buffered.body_bytes);
  std::printf("  streaming O(1) buffering %s\n\n",
              streaming_ok ? "holds" : "FAILED");

  // --- phase 5: sharded scatter-gather, 1 vs 2 vs 4 shards ----------------
  std::printf("[sharded] partitioning the demo cube across 1/2/4 shard "
              "servers behind a scatter router\n");
  cube::CubeView global_view = BuildDemoCube(scale, 0).Seal(2);
  std::vector<ShardedResult> sharded;
  for (size_t n : {1u, 2u, 4u}) {
    sharded.push_back(
        RunShardedPhase(global_view, n, clients, seconds));
    const ShardedResult& r = sharded.back();
    std::printf("  %zu shard%s: %llu ok, %llu errors | %.0f qps | "
                "p50 %.2f ms, p99 %.2f ms\n",
                r.shards, r.shards == 1 ? " " : "s",
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.errors), r.qps, r.p50_ms,
                r.p99_ms);
  }
  bool sharded_ok = true;
  for (const ShardedResult& r : sharded) {
    sharded_ok = sharded_ok && r.ok > 0 && r.errors == 0;
  }
  std::printf("  sharded serving %s: every topology answered the full "
              "cache-busting mix without errors\n",
              sharded_ok ? "worked" : "FAILED");
  std::printf("  (per-request fan-out parallelism needs spare cores; on a "
              "small container the curve can be flat or inverted while the "
              "answers stay byte-identical)\n\n");

  // --- trajectory record ---------------------------------------------------
  {
    std::FILE* json = std::fopen("BENCH_server.json", "w");
    if (json != nullptr) {
      // Per-phase latency quantiles, all read from the same fixed-bucket
      // histogram the server exports on /metrics (interpolated, not exact
      // order statistics — consistent with what an operator would compute
      // from the scraped buckets).
      auto quantiles = [](const trace::LatencyHistogram& h) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f",
                      h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99));
        return std::string(buf);
      };
      std::fprintf(json, "{\n");
      std::fprintf(json,
                   "  \"hot_loop\": {\"qps\": %.1f, %s, \"ok\": %llu},\n",
                   hot.Qps(), quantiles(hot_hist).c_str(),
                   static_cast<unsigned long long>(hot.ok));
      std::fprintf(json,
                   "  \"closed_loop\": {\"qps\": %.1f, %s, "
                   "\"ok\": %llu, \"errors\": %llu},\n",
                   capacity, quantiles(closed_hist).c_str(),
                   static_cast<unsigned long long>(closed.ok),
                   static_cast<unsigned long long>(closed.errors));
      std::fprintf(json,
                   "  \"open_loop_2x\": {\"offered_qps\": %.1f, "
                   "\"shed_rate\": %.4f, \"accepted\": {%s}},\n",
                   offered, shed_rate, quantiles(open_hist).c_str());
      std::fprintf(json,
                   "  \"publish_under_load\": {\"version\": %llu, "
                   "\"warmed\": %zu, \"window_hit_rate\": %.4f, %s},\n",
                   static_cast<unsigned long long>(publish_info.version),
                   publish_info.warmed, 100 * HitRate(window) / 100.0,
                   quantiles(publish_hist).c_str());
      std::fprintf(json, "  \"streaming\": {\n");
      std::fprintf(json, "    \"rows\": %zu,\n", rows);
      std::fprintf(json,
                   "    \"streamed\": {\"ttfb_ms\": %.3f, \"total_ms\": "
                   "%.3f, \"body_bytes\": %zu, "
                   "\"peak_response_buffer_bytes\": %.0f},\n",
                   streamed.ttfb_ms, streamed.total_ms, streamed.body_bytes,
                   peak_streamed);
      std::fprintf(json,
                   "    \"streamed_tenth\": {\"rows\": %zu, "
                   "\"peak_response_buffer_bytes\": %.0f},\n",
                   rows / 10, peak_small);
      std::fprintf(json,
                   "    \"buffered\": {\"ttfb_ms\": %.3f, \"total_ms\": "
                   "%.3f, \"body_bytes\": %zu, "
                   "\"peak_response_buffer_bytes\": %.0f},\n",
                   buffered.ttfb_ms, buffered.total_ms, buffered.body_bytes,
                   peak_buffered);
      std::fprintf(json, "    \"o1_buffering_holds\": %s\n",
                   streaming_ok ? "true" : "false");
      std::fprintf(json, "  },\n");
      std::fprintf(json, "  \"sharded\": [\n");
      for (size_t i = 0; i < sharded.size(); ++i) {
        const ShardedResult& r = sharded[i];
        std::fprintf(json,
                     "    {\"shards\": %zu, \"qps\": %.1f, \"p50_ms\": %.3f, "
                     "\"p99_ms\": %.3f, \"ok\": %llu, \"errors\": %llu}%s\n",
                     r.shards, r.qps, r.p50_ms, r.p99_ms,
                     static_cast<unsigned long long>(r.ok),
                     static_cast<unsigned long long>(r.errors),
                     i + 1 < sharded.size() ? "," : "");
      }
      std::fprintf(json, "  ]\n");
      std::fprintf(json, "}\n");
      std::fclose(json);
      std::printf("wrote BENCH_server.json\n");
    }
  }

  bool ok = closed.ok > 0 && closed.errors == 0 && warmed_ok &&
            publish_load.ok > 0 && streaming_ok && sharded_ok;
  std::printf("bench_server %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
