// bench_server: loopback load against the scubed serving front-end, for
// what perfbench's workloads cannot measure: overload, a publish under
// load, and scaling from one shard to four (perfbench's explore, stream
// and routed time the steady-state mix, large streamed exports and a
// 2-shard router).
//
// Four phases, all through real HTTP on 127.0.0.1:
//   1. capacity probe  closed-loop clients on a cache-busting mix ->
//                      sustained qps, p50/p99 latency; it sizes phase 2
//   2. open loop 2x    requests offered at twice the measured capacity ->
//                      shed rate (503s), p99 of *accepted* requests timed
//                      from when each was due, and the rate the senders
//                      achieved with how far they fell behind schedule
//   3. publish         a new cube version is published mid-load with
//                      cache warming -> cache hit rate over the window, and
//                      every response stays well-formed
//   4. sharded         the demo cube partitioned across 1 / 2 / 4 in-process
//                      shard scubeds behind a scatter-gather router, loaded
//                      with the cache-busting mix -> qps and latency per
//                      topology, and the answers stay well-formed end to end
//
// Prints its results and writes no file; exits 1 when a phase fails.
//
// Run:  ./bench_server [--quick] [--scale S] [--seconds T]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
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
  uint64_t sent = 0;      ///< requests written, retries included
  std::vector<double> lag_ms;  ///< open loop: each send behind its due time
  double seconds = 0;

  double Qps() const {
    return seconds > 0 ? static_cast<double>(ok) / seconds : 0;
  }
  void Merge(const LoadResult& other) {
    ok += other.ok;
    shed += other.shed;
    expired += other.expired;
    errors += other.errors;
    sent += other.sent;
    lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
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
/// turns the closed loop into an open loop with that inter-send gap. An
/// open-loop request is timed from when it was due, not from when a
/// sender that fell behind got to send it, and each send's lag behind
/// schedule is kept. HTTP-200 latencies land in `hist` — the same
/// atomic-bucket histogram the server exports, shared across all clients
/// of a phase (LoadResult is merged by value; an atomic histogram cannot
/// ride in it).
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
  using Clock = std::chrono::steady_clock;
  using Millis = std::chrono::duration<double, std::milli>;
  const auto pace = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(pace_s));
  auto next_send = Clock::now();
  while (total.Seconds() < seconds) {
    if (pace_s > 0) std::this_thread::sleep_until(next_send);
    const std::string query =
        cache_bust ? CacheBustQuery(i++ * 131 + offset)
                   : mix[i++ % mix.size()];
    const Clock::time_point sent_at = Clock::now();
    const Clock::time_point due = pace_s > 0 ? next_send : sent_at;
    if (pace_s > 0) {
      out.lag_ms.push_back(Millis(sent_at - due).count());
      next_send += pace;
    }
    ++out.sent;
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
      hist->Observe(Millis(Clock::now() - due).count());
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
// Phase 4: sharded scatter-gather serving, 1 vs 2 vs 4 shards.
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
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
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
  query::QueryService service(&store, service_options);
  service.PublishAndWarm("default", std::move(cube_v1));

  server::ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.loopback_only = true;
  // Connection capacity must exceed the admission bound, so that
  // query-level admission (not the connection pool) is what saturates.
  server_options.num_connection_threads = clients * 16;
  server::ScubedServer server(&service, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("scubed on 127.0.0.1:%u — queue bound %zu, deadline %.0f ms\n\n",
              server.port(), service_options.max_pending, deadline_ms);

  // --- phase 1: capacity probe --------------------------------------------
  // The probe must *saturate* the service, not measure one connection's
  // round-trip latency: enough concurrent closed-loop clients that the
  // service rate, not the RTT, is the limit.
  size_t probe_clients = clients * 8;
  std::printf("[capacity probe: closed loop, cache-busting] %zu clients, "
              "%.1f s\n", probe_clients, seconds);
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
  std::printf("  %llu ok, %llu shed (%.0f%%), %llu deadline-expired, "
              "%llu errors\n",
              static_cast<unsigned long long>(open.ok),
              static_cast<unsigned long long>(open.shed), 100 * shed_rate,
              static_cast<unsigned long long>(open.expired),
              static_cast<unsigned long long>(open.errors));
  std::sort(open.lag_ms.begin(), open.lag_ms.end());
  const double lag_median =
      open.lag_ms.empty() ? 0.0 : open.lag_ms[open.lag_ms.size() / 2];
  const double lag_max = open.lag_ms.empty() ? 0.0 : open.lag_ms.back();
  std::printf("  offered %.0f qps, sent %.0f/s | send lag behind schedule: "
              "median %.2f ms, max %.2f ms\n",
              offered,
              open.seconds > 0 ? static_cast<double>(open.sent) / open.seconds
                               : 0.0,
              lag_median, lag_max);
  std::printf("  accepted p99 %.2f ms from each request's due time "
              "(deadline %.0f ms)\n\n",
              open_hist.Quantile(0.99), deadline_ms);

  // --- phase 3: publish + warm during load --------------------------------
  std::printf("[publish during load] publishing v2 mid-load with cache "
              "warming\n");
  auto before_stats = service.cache_stats();
  query::QueryService::PublishInfo publish_info;
  std::thread publisher([&] {
    // Let the load warm the cache first, then publish.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(seconds * 0.4));
    publish_info = service.PublishAndWarm("default", std::move(cube_v2));
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
              "%llu errors, p99 %.2f ms | window hit rate %.0f%%\n",
              static_cast<unsigned long long>(publish_info.version),
              publish_info.warmed,
              static_cast<unsigned long long>(publish_load.ok),
              static_cast<unsigned long long>(publish_load.errors),
              publish_hist.Quantile(0.99), 100 * HitRate(window));
  bool warmed_ok = publish_info.version == 2 && publish_info.warmed > 0;
  std::printf("  cache warming %s: the hottest texts were re-executed "
              "against v2 at publish time\n\n",
              warmed_ok ? "worked" : "FAILED");

  server.Stop();
  service.Shutdown();

  // --- phase 4: sharded scatter-gather, 1 vs 2 vs 4 shards ----------------
  std::printf("[sharded] partitioning the demo cube across 1/2/4 shard "
              "servers behind a scatter router\n");
  cube::CubeView global_view = BuildDemoCube(scale, 0).Seal(2);
  bool sharded_ok = true;
  for (size_t n : {1u, 2u, 4u}) {
    const ShardedResult r = RunShardedPhase(global_view, n, clients, seconds);
    std::printf("  %zu shard%s: %llu ok, %llu errors | %.0f qps | "
                "p50 %.2f ms, p99 %.2f ms\n",
                r.shards, r.shards == 1 ? " " : "s",
                static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.errors), r.qps, r.p50_ms,
                r.p99_ms);
    sharded_ok = sharded_ok && r.ok > 0 && r.errors == 0;
  }
  std::printf("  sharded serving %s: every topology answered the full "
              "cache-busting mix without errors\n",
              sharded_ok ? "worked" : "FAILED");
  std::printf("  (per-request fan-out parallelism needs spare cores; on a "
              "small container the curve can be flat or inverted while the "
              "answers stay byte-identical)\n\n");

  bool ok = closed.ok > 0 && closed.errors == 0 && warmed_ok &&
            publish_load.ok > 0 && sharded_ok;
  std::printf("bench_server %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
