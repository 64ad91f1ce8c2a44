#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <cstdlib>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/random.h"
#include "common/trace.h"
#include "http_client.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/row_sink.h"
#include "server/router.h"

namespace perfbench {

using namespace scube;

namespace {

// Per-client random streams: the timed loop and the warm-up draw from
// different streams of the same seed.
constexpr uint64_t kTimedSalt = 0x7151EDULL;
constexpr uint64_t kWarmupSalt = 0x3A53ULL;
constexpr double kWarmupSeconds = 0.5;
// Process CPU per operation is read once per window of this length and
// the gate reports the median window, so a burst of other tenants' load
// on a shared host moves a few windows, not the result.
constexpr double kWindowSeconds = 0.5;
// The build loop publishes at least this often, so the store's version
// retention (4 sealed versions) is full and peak RSS does not depend on
// how many publishes fit in the run.
constexpr uint64_t kMinPublishes = 4;

uint64_t ClientSeed(uint64_t seed, uint64_t salt, size_t client) {
  return seed * 0x9E3779B97F4A7C15ULL + salt * 131 + client;
}

}  // namespace

size_t NumClients() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 2);
}

uint64_t TimedClientSeed(uint64_t seed, size_t client) {
  return ClientSeed(seed, kTimedSalt, client);
}

namespace {

/// (statement or export id) -> (masked answer hash -> count).
using Tally = std::unordered_map<uint64_t, std::unordered_map<uint64_t, uint64_t>>;

void MergeTally(const Tally& from, Tally* into) {
  for (const auto& [id, hashes] : from) {
    for (const auto& [hash, count] : hashes) (*into)[id][hash] += count;
  }
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// One client thread's share of a loop.
struct ClientResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t completed = 0;
  uint64_t rows = 0;
  Samples latency_ms;
  Samples ttfb_ms;
  Tally tally;
  std::string detail;
  /// Gate operations done so far (requests; stream: rows), read by the
  /// window sampler while the client runs.
  std::atomic<uint64_t> work{0};
  void Fail(const std::string& why) {
    ++failed;
    if (detail.empty()) detail = why;
  }
};

/// Scrapes scubed_queue_depth from `ports` every 50 ms until stopped.
class MetricsSampler {
 public:
  explicit MetricsSampler(std::vector<uint16_t> ports) : ports_(std::move(ports)) {
    thread_ = std::thread([this] { Run(); });
  }
  ~MetricsSampler() { Stop(); }
  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const Samples& depth() const { return depth_; }

 private:
  void Run() {
    std::vector<std::unique_ptr<HttpClient>> clients;
    for (uint16_t port : ports_) {
      clients.push_back(std::make_unique<HttpClient>());
      clients.back()->Connect(port);
    }
    while (!stop_.load()) {
      double sum = 0;
      bool ok = true;
      for (auto& client : clients) {
        HttpResult r = client->Request("GET", "/metrics", "");
        double v = r.transport_ok ? ScrapeSeries(r.body, "scubed_queue_depth") : -1;
        if (v < 0) ok = false;
        sum += v;
      }
      if (ok) depth_.Add(sum);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  std::vector<uint16_t> ports_;
  std::atomic<bool> stop_{false};
  Samples depth_;
  std::thread thread_;
};

/// True when the single-statement /query envelope reports code OK.
bool BodyOk(const std::string& body) {
  size_t at = body.find("\"code\":\"");
  return at != std::string::npos && body.compare(at + 8, 3, "OK\"") == 0;
}

void QueryClient(uint16_t port, const ExploreMix& mix, uint64_t rng_seed,
                 Clock::time_point deadline, bool mask_cursor,
                 ClientResult* out) {
  HttpClient client;
  client.Connect(port);
  Rng rng(rng_seed);
  while (Clock::now() < deadline) {
    uint32_t id = mix.Next(rng);
    ++out->attempted;
    HttpResult r = client.Request("POST", "/query", mix.text(id));
    if (!r.transport_ok) {  // the next Request reconnects
      out->Fail("transport: " + r.error);
      continue;
    }
    if (r.status != 200) {
      out->Fail("HTTP " + std::to_string(r.status) + " for " + mix.text(id));
      continue;
    }
    if (!BodyOk(r.body)) {
      out->Fail("error answer for " + mix.text(id) + ": " + r.body.substr(0, 200));
      continue;
    }
    out->latency_ms.Add(Ms(r.done - r.sent));
    ++out->completed;
    out->work.fetch_add(1, std::memory_order_relaxed);
    ++out->tally[id][Fnv1a(MaskVolatile(r.body, mask_cursor))];
  }
}

/// One export: every page until the cursor runs out. Returns false (and
/// counts the failure) when a page fails; `hash` receives the stitched
/// answer's hash.
bool RunExport(HttpClient* client, const Export& e, bool csv,
               ClientResult* out, uint64_t* hash, uint64_t* pages) {
  std::string cursor;
  uint64_t h = Fnv1a("");
  bool first = true;
  bool any_rows = false;
  *pages = 0;
  do {
    std::string target = std::string("/query?stream=1&format=") +
                         (csv ? "csv" : "json");
    if (!cursor.empty()) target += "&cursor=" + UrlEncode(cursor);
    ++out->attempted;
    ++*pages;
    HttpResult r = client->Request("POST", target, e.sent);
    if (!r.transport_ok) {  // the next Request reconnects
      out->Fail("transport: " + r.error);
      return false;
    }
    if (r.status != 200) {
      out->Fail("HTTP " + std::to_string(r.status) + " for " + e.sent);
      return false;
    }
    StreamPage page = ParseStreamPage(r.body, csv);
    if (!page.ok) {
      out->Fail("error page for " + e.sent + ": " + r.body.substr(0, 200));
      return false;
    }
    out->ttfb_ms.Add(Ms(r.status_read - r.sent));
    out->latency_ms.Add(Ms(r.done - r.sent));
    ++out->completed;
    out->rows += page.num_rows;
    out->work.fetch_add(page.num_rows, std::memory_order_relaxed);
    // Stitch: the header once, then the rows of every page (JSON row
    // lists joined by ',').
    if (first) h = Fnv1a(page.header, h);
    if (!csv && any_rows && !page.rows.empty()) h = Fnv1a(",", h);
    h = Fnv1a(page.rows, h);
    first = false;
    any_rows = any_rows || !page.rows.empty();
    cursor = page.next_cursor;
  } while (!cursor.empty());
  *hash = h;
  return true;
}

void StreamClient(uint16_t port, const StreamMix& mix, uint64_t rng_seed,
                  Clock::time_point deadline, ClientResult* out) {
  HttpClient client;
  client.Connect(port);
  Rng rng(rng_seed);
  while (Clock::now() < deadline) {
    bool csv = false;
    uint32_t id = mix.Next(rng, &csv);
    uint64_t hash = 0;
    uint64_t pages = 0;
    if (RunExport(&client, mix.get(id), csv, out, &hash, &pages)) {
      out->tally[id * 2 + (csv ? 1 : 0)][hash] += pages;
    }
  }
}

/// Sum of the result-cache counters over `ports`: hits, misses, evictions.
std::array<double, 3> CacheCounters(const std::vector<uint16_t>& ports) {
  std::array<double, 3> sum{};
  for (uint16_t port : ports) {
    std::string metrics = FetchMetrics(port);
    sum[0] += ScrapeSeries(metrics, "scubed_cache_hits_total");
    sum[1] += ScrapeSeries(metrics, "scubed_cache_misses_total");
    sum[2] += ScrapeSeries(metrics, "scubed_cache_evictions_total");
  }
  return sum;
}

/// Runs `clients` client threads until `seconds` have passed and merges
/// their results; optionally samples /metrics on `sample_ports`. Every
/// kWindowSeconds the process CPU per gate operation of the window is
/// recorded (`ops_per_work` converts the clients' work count to gate
/// operations).
template <typename ClientFn>
LoopResult RunClients(size_t clients, double seconds, double ops_per_work,
                      const std::vector<uint16_t>& sample_ports, ClientFn fn,
                      Tally* tally) {
  LoopResult result;
  std::optional<MetricsSampler> sampler;
  std::array<double, 3> cache_before{};
  if (!sample_ports.empty()) {
    cache_before = CacheCounters(sample_ports);
    sampler.emplace(sample_ports);
  }
  std::vector<ClientResult> parts(clients);
  CpuTicks ticks0 = CpuTicks::Read();
  double cpu0 = ProcessCpuSeconds();
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] { fn(c, deadline, &parts[c]); });
  }
  // Only whole windows count; the tail after the deadline, where clients
  // finish their last operation, is dropped.
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowSeconds));
  double cpu_mark = cpu0;
  uint64_t work_mark = 0;
  for (Clock::time_point end = start + window; end <= deadline; end += window) {
    std::this_thread::sleep_until(end);
    double cpu = ProcessCpuSeconds();
    uint64_t work = 0;
    for (const ClientResult& part : parts) work += part.work.load(std::memory_order_relaxed);
    double ops = static_cast<double>(work - work_mark) * ops_per_work;
    if (ops > 0) result.cpu_s_per_op.Add((cpu - cpu_mark) / ops);
    cpu_mark = cpu;
    work_mark = work;
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = SecondsSince(start);
  result.cpu_s = ProcessCpuSeconds() - cpu0;
  uint64_t work = 0;
  for (const ClientResult& part : parts) work += part.work.load();
  if (result.cpu_s_per_op.empty() && work > 0) {  // a loop shorter than a window
    result.cpu_s_per_op.Add(result.cpu_s / (static_cast<double>(work) * ops_per_work));
  }
  result.steal = CpuTicks::Read().StealShareSince(ticks0);
  if (sampler) {
    sampler->Stop();
    result.queue_depth_mean = sampler->depth().Mean();
    std::array<double, 3> cache_after = CacheCounters(sample_ports);
    result.cache_hits = cache_after[0] - cache_before[0];
    result.cache_misses = cache_after[1] - cache_before[1];
    result.cache_evictions = cache_after[2] - cache_before[2];
  }
  for (ClientResult& part : parts) {
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.completed += part.completed;
    result.rows += part.rows;
    result.latency_ms.Append(part.latency_ms);
    result.ttfb_ms.Append(part.ttfb_ms);
    if (result.detail.empty()) result.detail = part.detail;
    MergeTally(part.tally, tally);
  }
  return result;
}

/// Charges answers whose hash differs from the reference as failed.
void CheckTally(const Tally& tally,
                const std::function<uint64_t(uint64_t id)>& reference,
                const std::function<std::string(uint64_t id)>& describe,
                LoopResult* result) {
  for (const auto& [id, hashes] : tally) {
    uint64_t want = reference(id);
    for (const auto& [hash, count] : hashes) {
      if (hash == want) continue;
      result->wrong += count;
      result->failed += count;
      if (result->completed >= count) result->completed -= count;
      if (result->detail.empty()) result->detail = "wrong answer: " + describe(id);
    }
  }
}

LoopResult QueryLoop(Fixture* f, uint64_t seed, uint64_t salt, double seconds,
                     bool sample_metrics, bool check) {
  const bool routed = f->cluster != nullptr;
  std::vector<uint16_t> sample_ports;
  if (sample_metrics) {
    if (routed) {
      for (auto& shard : f->cluster->shards) sample_ports.push_back(shard->port());
    } else {
      sample_ports.push_back(f->node->port());
    }
  }
  const uint16_t port = f->port();
  const ExploreMix& mix = *f->explore;
  Tally tally;
  LoopResult result = RunClients(
      NumClients(), seconds, /*ops_per_work=*/1.0, sample_ports,
      [&](size_t c, Clock::time_point deadline, ClientResult* out) {
        QueryClient(port, mix, ClientSeed(seed, salt, c), deadline, routed, out);
      },
      &tally);
  if (!check) return result;
  // Reference: a fresh single-node service (no cache) over the same
  // snapshot the load saw.
  query::ServiceOptions options;
  options.cache_capacity = 0;
  query::QueryService reference(&f->node->store, options);
  CheckTally(
      tally,
      [&](uint64_t id) {
        return Fnv1a(MaskVolatile(
            ReferenceBody(&reference, mix.text(static_cast<uint32_t>(id))), routed));
      },
      [&](uint64_t id) { return mix.text(static_cast<uint32_t>(id)); }, &result);
  return result;
}

LoopResult StreamLoop(Fixture* f, uint64_t seed, uint64_t salt, double seconds,
                      bool sample_metrics, bool check) {
  std::vector<uint16_t> sample_ports;
  if (sample_metrics) sample_ports.push_back(f->node->port());
  const uint16_t port = f->port();
  const StreamMix& mix = *f->stream;
  Tally tally;
  // A stream operation is 1000 rows delivered: requests range from a
  // 250-row page to a 13.5k-row export.
  LoopResult result = RunClients(
      NumClients(), seconds, /*ops_per_work=*/1e-3, sample_ports,
      [&](size_t c, Clock::time_point deadline, ClientResult* out) {
        StreamClient(port, mix, ClientSeed(seed, salt, c), deadline, out);
      },
      &tally);
  if (!check) return result;
  CheckTally(
      tally,
      [&](uint64_t key) {
        bool csv = (key & 1) != 0;
        StreamPage ref = ReferenceExport(f->node->store, mix.get(key / 2).base, csv);
        uint64_t h = Fnv1a(ref.header, Fnv1a(""));
        return Fnv1a(ref.rows, h);
      },
      [&](uint64_t key) {
        return mix.get(key / 2).sent + ((key & 1) ? " (csv)" : " (json)");
      },
      &result);
  return result;
}

LoopResult BuildLoop(Fixture* f, double seconds, bool traced) {
  LoopResult result;
  CpuTicks ticks0 = CpuTicks::Read();
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    ++result.attempted;
    std::optional<trace::TraceContext> tc;
    if (traced) tc.emplace();
    double cpu0 = ProcessCpuSeconds();
    Clock::time_point t0 = Clock::now();
    auto cube = BuildCubeFromCsv(f->csv, tc ? &*tc : nullptr);
    if (!cube.ok()) {
      result.failed++;
      if (result.detail.empty()) result.detail = cube.status().ToString();
      continue;
    }
    f->publisher->PublishAndWarm(kCubeName, std::move(cube).value());
    double ms = Ms(Clock::now() - t0);
    double cpu = ProcessCpuSeconds() - cpu0;
    result.cpu_s += cpu;
    result.cpu_s_per_op.Add(cpu);
    result.wall_s += ms / 1e3;
    result.latency_ms.Add(ms);
    if (SnapshotHash(*f->store) != f->cube_hash) {
      ++result.failed;
      ++result.wrong;
      if (result.detail.empty()) result.detail = "published cube differs";
      continue;
    }
    ++result.completed;
  } while (Clock::now() < deadline || result.attempted < kMinPublishes);
  result.steal = CpuTicks::Read().StealShareSince(ticks0);
  return result;
}

}  // namespace

std::unique_ptr<Fixture> SetUp(const std::string& workload, uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->csv = MakeCsvInputs(seed);
  auto cube = BuildCubeFromCsv(f->csv);
  if (!cube.ok()) Die("build", cube.status());
  if (workload == "build") {
    // The first publish of the process is warm-up and is not timed.
    f->store = std::make_unique<query::CubeStore>();
    query::ServiceOptions options;
    options.seal_threads = 0;
    f->publisher = std::make_unique<query::QueryService>(f->store.get(), options);
    f->publisher->PublishAndWarm(kCubeName, std::move(cube).value());
    f->cube_hash = SnapshotHash(*f->store);
    return f;
  }
  f->node = StartNode(std::move(cube).value());
  f->cube_hash = SnapshotHash(f->node->store);
  auto view = f->node->store.Get(kCubeName);
  if (workload == "stream") {
    f->stream = std::make_unique<StreamMix>(*view);
  } else {
    f->explore = std::make_unique<ExploreMix>(*view, seed);
    if (workload == "routed") f->cluster = StartCluster(*view, 2);
  }
  WarmUp(f.get(), seed);
  return f;
}

void WarmUp(Fixture* f, uint64_t seed) {
  if (f->stream) {
    StreamLoop(f, seed, kWarmupSalt, kWarmupSeconds, false, false);
  } else if (f->explore) {
    QueryLoop(f, seed, kWarmupSalt, kWarmupSeconds, false, false);
  }
}

void ClearCaches(Fixture* f) {
  if (f->node) f->node->service->ClearCache();
  if (f->cluster) {
    for (auto& shard : f->cluster->shards) shard->service->ClearCache();
  }
}

LoopResult RunLoop(const std::string& workload, Fixture* fixture, uint64_t seed,
                   double seconds, bool sample_metrics) {
  if (workload == "build") return BuildLoop(fixture, seconds, sample_metrics);
  if (workload == "stream") {
    return StreamLoop(fixture, seed, kTimedSalt, seconds, sample_metrics, true);
  }
  return QueryLoop(fixture, seed, kTimedSalt, seconds, sample_metrics, true);
}

std::string MaskVolatile(const std::string& body, bool mask_cursor) {
  static const char* kNumeric[] = {"\"exec_ms\":", "\"cache_hit\":",
                                   "\"cells_scanned\":"};
  std::string out;
  out.reserve(body.size());
  size_t i = 0;
  while (i < body.size()) {
    bool masked = false;
    if (body[i] == '"') {
      for (const char* key : kNumeric) {
        size_t len = std::strlen(key);
        if (body.compare(i, len, key) == 0) {
          out.append(key, len);
          out += '_';
          i += len;
          while (i < body.size() && body[i] != ',' && body[i] != '}' &&
                 body[i] != ']') {
            ++i;
          }
          masked = true;
          break;
        }
      }
      static const char kCursor[] = "\"next_cursor\":\"";
      if (!masked && mask_cursor &&
          body.compare(i, sizeof(kCursor) - 1, kCursor) == 0) {
        out.append(kCursor, sizeof(kCursor) - 1);
        i += sizeof(kCursor) - 1;
        while (i < body.size() && body[i] != '"') ++i;
        masked = true;
      }
    }
    if (!masked) out += body[i++];
  }
  return out;
}

std::string ReferenceBody(query::QueryService* service, const std::string& text) {
  query::QueryResponse response = service->ExecuteOne(text);
  return "{\"count\":1,\"results\":[" + server::ResponseToJson(response) + "]}\n";
}

StreamPage ParseStreamPage(const std::string& body, bool csv) {
  StreamPage page;
  if (csv) {
    if (body.find("\n# code: ") != std::string::npos) return page;
    size_t eol = body.find('\n');
    if (eol == std::string::npos) return page;
    page.header = body.substr(0, eol + 1);
    size_t end = body.find("\n#", eol);
    end = end == std::string::npos ? body.size() : end + 1;
    page.rows = body.substr(eol + 1, end - eol - 1);
    for (char c : page.rows) page.num_rows += c == '\n';
    static const char kCursor[] = "# next_cursor: ";
    size_t at = body.find(kCursor, end);
    if (at != std::string::npos) {
      size_t start = at + sizeof(kCursor) - 1;
      size_t stop = body.find('\n', start);
      page.next_cursor = body.substr(start, stop - start);
    }
    page.ok = true;
    return page;
  }
  static const char kRows[] = "\"rows\":[";
  static const char kTail[] = "],\"cells_scanned\":";
  size_t begin = body.find(kRows);
  size_t end = body.rfind(kTail);
  size_t code = body.rfind(",\"code\":\"");
  if (begin == std::string::npos || end == std::string::npos || end < begin ||
      code == std::string::npos || body.compare(code + 9, 3, "OK\"") != 0) {
    return page;
  }
  begin += sizeof(kRows) - 1;
  page.rows = body.substr(begin, end - begin);
  static const char kCursor[] = "\"next_cursor\":\"";
  size_t at = body.find(kCursor, end);
  if (at != std::string::npos && at < code) {
    size_t start = at + sizeof(kCursor) - 1;
    page.next_cursor = body.substr(start, body.find('"', start) - start);
  }
  size_t count = body.rfind("\"rows\":");
  page.num_rows = std::strtoull(body.c_str() + count + 7, nullptr, 10);
  page.ok = true;
  return page;
}

StreamPage ReferenceExport(const query::CubeStore& store, const std::string& text,
                           bool csv) {
  uint64_t version = 0;
  store.Get(kCubeName, &version);
  auto executor = store.GetExecutor(kCubeName, version);
  auto parsed = query::Parse(text);
  if (!executor || !parsed.ok()) return StreamPage{};
  std::string out;
  auto write = [&out](std::string_view data) {
    out.append(data);
    return true;
  };
  query::StreamStats stats;
  std::unique_ptr<query::ResultWriter> writer;
  if (csv) {
    writer = std::make_unique<query::CsvWriter>(write);
  } else {
    writer = std::make_unique<query::JsonWriter>(write);
  }
  Status status = executor->ExecuteToSink(*parsed, {}, *writer, &stats);
  if (!status.ok()) return StreamPage{};
  writer->Finish(query::ResultTrailer{});
  if (!csv) {
    // Wrap like the streamed envelope so one parser cuts both.
    out = "{\"result\":" + out + ",\"code\":\"OK\",\"rows\":" +
          std::to_string(stats.rows_emitted) + "}\n";
  }
  return ParseStreamPage(out, csv);
}

}  // namespace perfbench
