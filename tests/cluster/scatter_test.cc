// The sharded-serving property test: a ScatterExecutor over 1, 2 and 4
// real shard servers (in-process ScubedServers on loopback ports, each
// holding its partition of one global cube) must produce byte-identical
// output to a single-node QueryService over the unsharded cube — for all
// seven verbs, JSON and CSV, buffered and streamed — with only the scan
// accounting (cells_scanned, ghosts are scanned twice) and cursor tokens
// masked. Plus the cursor lifecycle and the failure policy.

#include "cluster/scatter.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/partition.h"
#include "common/hashing.h"
#include "common/timer.h"
#include "cube/cube.h"
#include "net/http.h"
#include "net/socket.h"
#include "query/cube_store.h"
#include "query/parser.h"
#include "query/row_sink.h"
#include "query/service.h"
#include "query/wire_format.h"
#include "server/server.h"

namespace scube {
namespace cluster {
namespace {

cube::CubeCell MakeCell(std::vector<fpm::ItemId> sa,
                        std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m) {
  cube::CubeCell cell;
  cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                      fpm::Itemset(std::move(ca))};
  cell.context_size = t;
  cell.minority_size = m;
  cell.num_units = 3;
  cell.indexes.defined = (m != 0 && m != t);
  for (size_t i = 0; i < indexes::kNumIndexKinds; ++i) {
    // Deterministic but non-monotone values, so ranked verbs interleave
    // rows across shards and reversals actually occur.
    cell.indexes.values[i] =
        static_cast<double>((t * 31 + i * 7) % 101) / 101.0;
  }
  return cell;
}

/// Six single-item context coordinates plus the empty one: enough
/// distinct CAs that hash partitioning to 4 shards spreads cells and
/// every merge has to interleave. A different `first_t` gives the same
/// cells with other populations: a later version of the cube.
cube::SegregationCube MakeGlobalCube(uint64_t first_t = 400) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);
  catalog.GetOrAdd(1, "age", "young", AttributeKind::kSegregation);
  catalog.GetOrAdd(2, "origin", "foreign", AttributeKind::kSegregation);
  for (fpm::ItemId c = 3; c <= 8; ++c) {
    catalog.GetOrAdd(c, "province", "p" + std::to_string(c),
                     AttributeKind::kContext);
  }
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1", "u2"});
  const std::vector<std::vector<fpm::ItemId>> sas = {
      {}, {0}, {1}, {2}, {0, 1}, {0, 2}};
  uint64_t t = first_t;
  for (const auto& sa : sas) {
    cube.Insert(MakeCell(sa, {}, t, sa.empty() ? 0 : t / 3));
    for (fpm::ItemId c = 3; c <= 8; ++c) {
      cube.Insert(MakeCell(sa, {c}, t / 2 + c,
                           sa.empty() ? 0 : (t / 2 + c) / 4 + c % 3));
      ++t;
    }
  }
  return cube;
}

/// Every verb, plus the ORDER BY / WHERE / LIMIT shapes whose merge keys
/// differ from the natural walk.
const std::vector<std::string>& AllVerbTexts() {
  static const std::vector<std::string> texts = {
      "SLICE sa=sex=F",
      "SLICE sa=sex=F | ca=province=p4",
      "SLICE ca=province=p5",
      "DICE sa=sex=F",
      "DICE sa=sex=F WHERE T >= 210",
      "ROLLUP sa=sex=F & age=young | ca=province=p5",
      "DRILLDOWN sa=sex=F",
      "DRILLDOWN",
      "TOPK 7 BY gini WHERE T >= 1 AND M >= 1",
      "TOPK 5 BY atkinson WHERE T >= 1 AND M >= 1 ORDER BY T DESC",
      "SURPRISES BY dissimilarity MINDELTA 0.001",
      "REVERSALS MINGAP 0.001",
      "DICE sa=sex=F ORDER BY gini DESC",
      "DICE sa=sex=F LIMIT 3 OFFSET 2",
  };
  return texts;
}

/// Scan accounting and cursor tokens legitimately differ between a
/// router and a single node (shards also scan their ghosts; composite
/// cursors are a different format) — mask them, nothing else.
std::string Mask(std::string text) {
  static const std::regex scanned("\"cells_scanned\":[0-9]+");
  static const std::regex cursor_json("\"next_cursor\":\"[^\"]*\"");
  static const std::regex cursor_csv("# next_cursor: [^\n]*");
  text = std::regex_replace(text, scanned, "\"cells_scanned\":X");
  text = std::regex_replace(text, cursor_json, "\"next_cursor\":\"X\"");
  text = std::regex_replace(text, cursor_csv, "# next_cursor: X");
  return text;
}

server::ServerOptions MakeServerOptions(size_t conns = 4) {
  server::ServerOptions options;
  options.port = 0;  // ephemeral
  options.loopback_only = true;
  options.num_connection_threads = conns;
  options.idle_poll_seconds = 0.1;  // fast Stop() in tests
  return options;
}

/// One in-process "shard scubed": store + service + HTTP server.
struct ShardProcess {
  query::CubeStore store;
  std::unique_ptr<query::QueryService> service;
  std::unique_ptr<server::ScubedServer> server;

  explicit ShardProcess(cube::SegregationCube cube, size_t conns = 4) {
    store.Publish("default", std::move(cube));
    service = std::make_unique<query::QueryService>(&store,
                                                    query::ServiceOptions{});
    server = std::make_unique<server::ScubedServer>(service.get(),
                                                    MakeServerOptions(conns));
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started;
  }
};

/// MakeGlobalCube(first_t) split into `n` shard cubes.
std::vector<cube::SegregationCube> Partitioned(size_t n,
                                              uint64_t first_t = 400) {
  cube::CubeView view = MakeGlobalCube(first_t).Seal(1);
  PartitionOptions options;
  options.num_shards = n;
  return PartitionCube(view, options);
}

/// An n-shard topology: partitioned shard servers, each with `conns`
/// connection handlers, plus the router-side scatter executor pointed at
/// them.
struct Topology {
  std::vector<std::unique_ptr<ShardProcess>> shards;
  std::unique_ptr<ScatterExecutor> scatter;

  explicit Topology(size_t n, size_t conns = 4) {
    std::vector<cube::SegregationCube> parts = Partitioned(n);
    std::vector<ShardSpec> specs;
    for (size_t i = 0; i < n; ++i) {
      shards.push_back(
          std::make_unique<ShardProcess>(std::move(parts[i]), conns));
      ShardSpec spec;
      spec.replicas.push_back(
          ShardEndpoint{"127.0.0.1", shards.back()->server->port()});
      specs.push_back(std::move(spec));
    }
    scatter = std::make_unique<ScatterExecutor>(std::move(specs));
  }
};

template <typename Backend>
std::string StreamJson(Backend* backend, const std::string& text,
                       query::StreamOutcome* outcome = nullptr,
                       const std::string& cursor = "") {
  std::string out;
  query::JsonWriter writer([&out](std::string_view chunk) {
    out.append(chunk);
    return true;
  });
  auto result = backend->ExecuteStreaming(text, writer, {}, cursor);
  EXPECT_TRUE(result.status.ok()) << text << " -> " << result.status;
  if (outcome != nullptr) *outcome = result;
  return out;
}

template <typename Backend>
std::string StreamCsv(Backend* backend, const std::string& text) {
  std::string out;
  query::CsvWriter writer([&out](std::string_view chunk) {
    out.append(chunk);
    return true;
  });
  auto result = backend->ExecuteStreaming(text, writer, {}, "");
  EXPECT_TRUE(result.status.ok()) << text << " -> " << result.status;
  return out;
}

class ScatterTest : public ::testing::Test {
 protected:
  ScatterTest() {
    single_store_.Publish("default", MakeGlobalCube());
    single_ = std::make_unique<query::QueryService>(&single_store_,
                                                    query::ServiceOptions{});
  }

  query::CubeStore single_store_;
  std::unique_ptr<query::QueryService> single_;
};

TEST_F(ScatterTest, EveryVerbIsByteIdenticalAcrossTopologies) {
  for (size_t n : {1u, 2u, 4u}) {
    Topology topo(n);
    for (const std::string& text : AllVerbTexts()) {
      // Streamed JSON: the bytes the chunked HTTP path would emit.
      std::string single_json = StreamJson(single_.get(), text);
      std::string scattered_json = StreamJson(topo.scatter.get(), text);
      EXPECT_EQ(Mask(scattered_json), Mask(single_json))
          << n << " shards, " << text;

      // Streamed CSV.
      EXPECT_EQ(Mask(StreamCsv(topo.scatter.get(), text)),
                Mask(StreamCsv(single_.get(), text)))
          << n << " shards, " << text;

      // Buffered (batch) path: materialised results render identically.
      auto batch = topo.scatter->ExecuteBatch({text}, {});
      ASSERT_EQ(batch.size(), 1u);
      ASSERT_TRUE(batch[0].status.ok()) << text << " -> " << batch[0].status;
      auto direct = single_->ExecuteOne(text);
      ASSERT_TRUE(direct.status.ok()) << text;
      EXPECT_EQ(Mask(ToJson(batch[0].result)), Mask(ToJson(direct.result)))
          << n << " shards, " << text;
      EXPECT_EQ(batch[0].verb, direct.verb) << text;
      EXPECT_EQ(batch[0].cube_version, direct.cube_version) << text;
    }
  }
}

TEST_F(ScatterTest, CursorStitchingMatchesTheUnpaginatedAnswer) {
  Topology topo(4);
  for (const std::string& base :
       {std::string("DICE sa=sex=F"),
        std::string("TOPK 9 BY gini WHERE T >= 1 AND M >= 1"),
        std::string("DICE sa=sex=F ORDER BY gini DESC"),
        // TOPK + ORDER BY pages positionally in the re-sorted selection
        // (a different cursor mechanism than per-shard consumed counts).
        std::string(
            "TOPK 9 BY atkinson WHERE T >= 1 AND M >= 1 ORDER BY T DESC")}) {
    auto unpaginated = single_->ExecuteOne(base);
    ASSERT_TRUE(unpaginated.status.ok()) << base;
    ASSERT_GT(unpaginated.result.rows.size(), 4u) << base;

    const std::string paged = base + " LIMIT 3";
    std::vector<query::ResultRow> stitched;
    std::string cursor;
    size_t pages = 0;
    do {
      query::VectorSink sink;
      auto outcome = topo.scatter->ExecuteStreaming(paged, sink, {}, cursor);
      ASSERT_TRUE(outcome.status.ok()) << paged << " -> " << outcome.status;
      for (const query::ResultRow& row : sink.result().rows) {
        stitched.push_back(row);
      }
      cursor = outcome.next_cursor;
      if (!cursor.empty()) {
        // Pages that continue hand out one position per shard, and they
        // must round-trip through the public codec.
        auto decoded = query::DecodeCursor(cursor);
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        EXPECT_EQ(decoded->cube, "default");
        EXPECT_EQ(decoded->positions.size(), 4u);
        EXPECT_EQ(query::EncodeCursor(*decoded), cursor);
      }
      ASSERT_LT(++pages, 64u) << "cursor loop did not terminate: " << base;
    } while (!cursor.empty());

    ASSERT_EQ(stitched.size(), unpaginated.result.rows.size()) << base;
    for (size_t i = 0; i < stitched.size(); ++i) {
      EXPECT_EQ(stitched[i].sa, unpaginated.result.rows[i].sa) << base;
      EXPECT_EQ(stitched[i].ca, unpaginated.result.rows[i].ca) << base;
      EXPECT_EQ(stitched[i].t, unpaginated.result.rows[i].t) << base;
      EXPECT_EQ(stitched[i].m, unpaginated.result.rows[i].m) << base;
      EXPECT_EQ(stitched[i].value, unpaginated.result.rows[i].value) << base;
    }
  }
}

TEST_F(ScatterTest, CursorCodecRejectsForeignTokens) {
  query::Cursor cursor;
  cursor.cube = "cube|with|pipes";  // the separator char, worst case
  cursor.version = 12;
  cursor.query_hash = 0xdeadbeefcafef00dULL;
  cursor.positions = {0, 17, 3};
  auto decoded = query::DecodeCursor(query::EncodeCursor(cursor));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cube, cursor.cube);
  EXPECT_EQ(decoded->version, cursor.version);
  EXPECT_EQ(decoded->query_hash, cursor.query_hash);
  EXPECT_EQ(decoded->positions, cursor.positions);

  EXPECT_FALSE(query::DecodeCursor("garbage!").ok());
  EXPECT_FALSE(query::DecodeCursor("").ok());
  // A four-field token (an old single-node layout) must not half-parse.
  EXPECT_FALSE(query::DecodeCursor("c2NxMXw0fDB8ZGVmYXVsdA").ok());
}

TEST_F(ScatterTest, CursorFromAnotherTopologyIsRejected) {
  Topology two(2);
  query::VectorSink sink;
  auto outcome =
      two.scatter->ExecuteStreaming("DICE sa=sex=F LIMIT 2", sink, {}, "");
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  ASSERT_FALSE(outcome.next_cursor.empty());

  Topology four(4);
  query::VectorSink sink2;
  auto resumed = four.scatter->ExecuteStreaming("DICE sa=sex=F LIMIT 2",
                                                sink2, {},
                                                outcome.next_cursor);
  EXPECT_FALSE(resumed.status.ok());
  EXPECT_NE(resumed.status.message().find("topology"), std::string::npos)
      << resumed.status;

  // A single-node token is rejected up front, too.
  auto page1 = single_->ExecuteOne("DICE sa=sex=F LIMIT 2");
  ASSERT_TRUE(page1.status.ok());
  ASSERT_FALSE(page1.result.next_cursor.empty());
  query::VectorSink sink3;
  auto foreign = two.scatter->ExecuteStreaming(
      "DICE sa=sex=F LIMIT 2", sink3, {}, page1.result.next_cursor);
  EXPECT_FALSE(foreign.status.ok());
}

TEST_F(ScatterTest, ANodeRejectsARouterCursorNamingTheTopology) {
  Topology two(2);
  query::VectorSink sink;
  auto page1 =
      two.scatter->ExecuteStreaming("DICE sa=sex=F LIMIT 2", sink, {}, "");
  ASSERT_TRUE(page1.status.ok()) << page1.status;
  ASSERT_FALSE(page1.next_cursor.empty());

  query::VectorSink sink2;
  auto resumed = single_->ExecuteStreaming("DICE sa=sex=F LIMIT 2", sink2, {},
                                           page1.next_cursor);
  EXPECT_EQ(resumed.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status.message().find("2-shard topology"),
            std::string::npos)
      << resumed.status;
  EXPECT_FALSE(resumed.begun);
}

// A one-shard partition holds every cell and no ghost, so a position names
// the same row on a node and on a one-shard router: both mint the same
// token for a page, and pages resumed across the two stitch into the
// unpaginated answer.
TEST_F(ScatterTest, ANodeAndAOneShardRouterResumeEachOthersCursors) {
  Topology one(1);
  for (const std::string& base :
       {std::string("DICE sa=sex=F"),
        std::string("TOPK 9 BY gini WHERE T >= 1 AND M >= 1"),
        std::string(
            "TOPK 9 BY atkinson WHERE T >= 1 AND M >= 1 ORDER BY T DESC")}) {
    auto unpaginated = single_->ExecuteOne(base);
    ASSERT_TRUE(unpaginated.status.ok()) << base;
    ASSERT_GT(unpaginated.result.rows.size(), 4u) << base;

    const std::string paged = base + " LIMIT 2";
    std::vector<query::ResultRow> stitched;
    std::string cursor;
    size_t pages = 0;
    do {
      query::VectorSink node_sink;
      auto node = single_->ExecuteStreaming(paged, node_sink, {}, cursor);
      ASSERT_TRUE(node.status.ok()) << paged << " -> " << node.status;
      query::VectorSink router_sink;
      auto router =
          one.scatter->ExecuteStreaming(paged, router_sink, {}, cursor);
      ASSERT_TRUE(router.status.ok()) << paged << " -> " << router.status;
      EXPECT_EQ(router.next_cursor, node.next_cursor) << paged;
      EXPECT_EQ(Mask(ToJson(router_sink.result())),
                Mask(ToJson(node_sink.result())))
          << paged;
      // Alternate which backend's token resumes the next page.
      const auto& rows = pages % 2 == 0 ? node_sink.result().rows
                                        : router_sink.result().rows;
      stitched.insert(stitched.end(), rows.begin(), rows.end());
      cursor = pages % 2 == 0 ? node.next_cursor : router.next_cursor;
      ASSERT_LT(++pages, 64u) << "cursor loop did not terminate: " << base;
    } while (!cursor.empty());

    ASSERT_EQ(stitched.size(), unpaginated.result.rows.size()) << base;
    for (size_t i = 0; i < stitched.size(); ++i) {
      EXPECT_EQ(stitched[i].sa, unpaginated.result.rows[i].sa) << base;
      EXPECT_EQ(stitched[i].ca, unpaginated.result.rows[i].ca) << base;
    }
  }
}

// The per-shard limit is skip + page + 1: a page near UINT64_MAX must not
// wrap it into a LIMIT 0 the shards refuse.
TEST_F(ScatterTest, PagesNearUint64MaxMatchTheSingleNode) {
  Topology topo(2);
  for (const std::string& text :
       {std::string("DICE sa=sex=F LIMIT 18446744073709551615"),
        std::string("DICE sa=sex=F LIMIT 18446744073709551614 OFFSET 1"),
        std::string("DICE sa=sex=F LIMIT 2 OFFSET 18446744073709551615")}) {
    EXPECT_EQ(Mask(StreamJson(topo.scatter.get(), text)),
              Mask(StreamJson(single_.get(), text)))
        << text;
  }
}

TEST_F(ScatterTest, FailedShardErrorNamesTheShard) {
  Topology topo(2);
  topo.shards[1]->server->Stop();

  query::VectorSink sink;
  auto outcome =
      topo.scatter->ExecuteStreaming("DICE sa=sex=F", sink, {}, "");
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_NE(outcome.status.message().find("shard 1 (127.0.0.1:"),
            std::string::npos)
      << outcome.status;
}

TEST_F(ScatterTest, AllowPartialDegradesAnalyticVerbsOnly) {
  Topology topo(4);
  topo.shards[2]->server->Stop();

  query::QueryContext partial;
  partial.allow_partial = true;

  // TOPK answers from the three live shards; no resume cursor is handed
  // out for a partial answer, even with LIMIT.
  query::VectorSink topk;
  auto analytic = topo.scatter->ExecuteStreaming(
      "TOPK 5 BY gini WHERE T >= 1 AND M >= 1 LIMIT 3", topk, partial, "");
  ASSERT_TRUE(analytic.status.ok()) << analytic.status;
  EXPECT_FALSE(topk.result().rows.empty());
  EXPECT_TRUE(analytic.next_cursor.empty())
      << "partial answers must not be resumable";

  // Navigation verbs never degrade: missing cells would be silent lies.
  query::VectorSink dice;
  auto navigation =
      topo.scatter->ExecuteStreaming("DICE sa=sex=F", dice, partial, "");
  EXPECT_FALSE(navigation.status.ok());
  EXPECT_NE(navigation.status.message().find("shard 2"), std::string::npos)
      << navigation.status;
}

TEST_F(ScatterTest, ThresholdsThatRoundAlikeRouteExactly) {
  // The router re-sends each statement's canonical text to the shards; a
  // threshold must reach them bit for bit, or a finding whose delta sits
  // between two thresholds with one 6-digit text lands on the wrong side.
  auto probe = single_->ExecuteOne("SURPRISES BY dissimilarity MINDELTA 0.001");
  ASSERT_TRUE(probe.status.ok()) << probe.status;
  ASSERT_FALSE(probe.result.rows.empty());
  const double delta = probe.result.rows[0].aux;
  const double below = std::nextafter(delta, 0.0);
  const double above = std::nextafter(delta, 1.0);
  char below_g[32], above_g[32];
  std::snprintf(below_g, sizeof(below_g), "%g", below);
  std::snprintf(above_g, sizeof(above_g), "%g", above);
  ASSERT_STREQ(below_g, above_g);

  Topology topo(2);
  size_t rows[2] = {0, 0};
  for (int side = 0; side < 2; ++side) {
    char text[96];
    std::snprintf(text, sizeof(text),
                  "SURPRISES BY dissimilarity MINDELTA %.17g",
                  side == 0 ? below : above);
    // A cache-less single node per statement: the reference answer.
    query::QueryService fresh(&single_store_, query::ServiceOptions{});
    std::string expected = StreamJson(&fresh, text);
    rows[side] = fresh.ExecuteOne(text).result.rows.size();
    EXPECT_EQ(Mask(StreamJson(topo.scatter.get(), text)), Mask(expected))
        << text;
  }
  EXPECT_GT(rows[0], rows[1]);
}

TEST_F(ScatterTest, ListCubesIntersectsAgreeingShards) {
  Topology topo(2);
  auto cubes = topo.scatter->ListCubes();
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0].name, "default");
  EXPECT_EQ(cubes[0].version, 1u);
  // Cells are summed across shards, ghosts counted once per holder — so
  // at least the global count.
  cube::CubeView view = MakeGlobalCube().Seal(1);
  EXPECT_GE(cubes[0].cells, view.NumCells());
}

TEST_F(ScatterTest, RouterServerServesScatterOverHttp) {
  Topology topo(2);
  server::ScubedServer router(topo.scatter.get(), MakeServerOptions());
  ASSERT_TRUE(router.Start().ok());

  auto connected = net::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  net::BufferedReader reader(&socket);
  auto resp = net::RoundTrip(&socket, &reader, "POST", "/query",
                             "DICE sa=sex=F");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, 200);
  EXPECT_NE(resp->body.find("\"code\":\"OK\""), std::string::npos)
      << resp->body;

  auto metrics = net::RoundTrip(&socket, &reader, "GET", "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("scubed_shard_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("scubed_shard_rtt_seconds"),
            std::string::npos);
  router.Stop();
}

/// What a FakeShard writes for one request: `bytes`; then, when `stall_s`
/// is positive, a pause of that long (cut short by Unstall, or when the
/// router closes the connection) and `after_stall`. With `close` the
/// connection ends after the answer.
struct FakeAnswer {
  std::string bytes;
  double stall_s = 0;
  std::string after_stall;
  bool close = false;
};

/// A stand-in shard that speaks just enough HTTP for the router: GET
/// /cubes lists cube "default" at version 1, and every other request gets
/// the answer `answer_for` returns for its body. Each connection is served
/// on its own thread. Declare it before the router, whose open
/// connections it serves.
class FakeShard {
 public:
  using AnswerFn = std::function<FakeAnswer(const std::string& body)>;

  /// Every statement gets `answer`'s raw bytes; a connection closes after
  /// an answer framed by close.
  explicit FakeShard(std::string answer)
      : FakeShard([answer = std::move(answer)](const std::string&) {
          return FakeAnswer{answer, 0, "",
                            answer.find("Connection: close") !=
                                std::string::npos};
        }) {}

  explicit FakeShard(AnswerFn answer_for)
      : answer_for_(std::move(answer_for)) {
    auto bound = net::ListenSocket::Bind(0, /*loopback_only=*/true);
    EXPECT_TRUE(bound.ok()) << bound.status();
    listener_ = std::move(bound).value();
    acceptor_ = std::thread([this] { Accept(); });
  }
  ~FakeShard() { Stop(); }
  FakeShard(const FakeShard&) = delete;
  FakeShard& operator=(const FakeShard&) = delete;

  uint16_t port() const { return listener_.port(); }

  /// Statements read so far (GET /cubes not counted).
  int requests() const { return requests_.load(); }

  /// Requests that arrived on a connection while it stalled: a router
  /// that gave up on the stream but kept the connection for reuse sends
  /// them.
  int requests_after_stall() const { return requests_after_stall_.load(); }

  /// Ends every stall now.
  void Unstall() { unstalled_ = true; }

  /// Unstalls, closes every connection and joins the threads; the counters
  /// are final afterwards. Idempotent.
  void Stop() {
    listener_.ShutdownAccept();
    if (acceptor_.joinable()) acceptor_.join();
    Unstall();
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (net::Socket& conn : conns_) ::shutdown(conn.fd(), SHUT_RDWR);
      threads.swap(threads_);
    }
    for (std::thread& t : threads) t.join();
  }

 private:
  void Accept() {
    for (;;) {
      auto conn = listener_.Accept();
      if (!conn.ok()) return;
      std::lock_guard<std::mutex> lock(mu_);
      // Sockets close only when the shard is destroyed, so Stop never
      // shuts down a reused descriptor.
      conns_.push_back(std::move(conn).value());
      net::Socket* socket = &conns_.back();
      threads_.emplace_back([this, socket] { Serve(socket); });
    }
  }

  void Serve(net::Socket* conn) {
    net::BufferedReader reader(conn);
    for (;;) {
      auto line = reader.ReadLine();
      if (!line.ok()) break;
      auto request = net::ReadHttpRequest(&reader, *line);
      if (!request.ok()) break;
      if (request->path == "/cubes") {
        net::HttpResponse cubes(
            200,
            "{\"cubes\":[{\"name\":\"default\",\"version\":1,"
            "\"retained\":[1],\"cells\":1,\"defined_cells\":1}]}\n");
        if (!conn->WriteAll(net::SerializeResponse(cubes, true)).ok()) break;
        continue;
      }
      ++requests_;
      FakeAnswer answer = answer_for_(request->body);
      if (!conn->WriteAll(answer.bytes).ok()) break;
      if (answer.stall_s > 0) {
        Stall(conn->fd(), answer.stall_s);
        if (!conn->WriteAll(answer.after_stall).ok()) break;
      }
      if (answer.close) break;
    }
    ::shutdown(conn->fd(), SHUT_RDWR);
  }

  /// Pauses up to `seconds`, until Unstall, or until the router closes
  /// the connection, watching for request bytes meanwhile.
  void Stall(int fd, double seconds) {
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (!unstalled_ && std::chrono::steady_clock::now() < until) {
      pollfd readable{fd, POLLIN, 0};
      if (::poll(&readable, 1, /*timeout_ms=*/10) <= 0) continue;
      char byte;
      if (::recv(fd, &byte, 1, MSG_PEEK) > 0) ++requests_after_stall_;
      return;  // a request arrived, or the router closed the connection
    }
  }

  AnswerFn answer_for_;
  net::ListenSocket listener_;
  std::atomic<int> requests_{0};
  std::atomic<int> requests_after_stall_{0};
  std::atomic<bool> unstalled_{false};
  std::mutex mu_;
  std::list<net::Socket> conns_;      // guarded by mu_
  std::vector<std::thread> threads_;  // guarded by mu_
  std::thread acceptor_;
};

// A shard that refuses a statement answers before streaming; the router
// reads that error body with the one body reader, whatever its framing,
// and names the shard's own message. Each answer is asked for twice, so
// the connection the first one left behind is reused or replaced.
TEST(ScatterShardErrorTest, ErrorBodiesAreReadInEveryFraming) {
  struct Case {
    std::string answer;
    StatusCode code;
  };
  const std::string message = "{\"error\":\"no room at the shard\"}\n";
  auto chunk = [](const std::string& payload) {
    char size[16];
    std::snprintf(size, sizeof(size), "%zx\r\n", payload.size());
    return size + payload + "\r\n";
  };
  const std::vector<Case> cases = {
      {"HTTP/1.1 503 Service Unavailable\r\nContent-Length: " +
           std::to_string(message.size()) + "\r\n\r\n" + message,
       StatusCode::kUnavailable},
      {"HTTP/1.1 400 Bad Request\r\nTransfer-Encoding: chunked\r\n\r\n" +
           chunk(message.substr(0, 16)) + chunk(message.substr(16)) +
           "0\r\n\r\n",
       StatusCode::kInvalidArgument},
      {"HTTP/1.1 404 Not Found\r\nConnection: close\r\n\r\n" + message,
       StatusCode::kNotFound},
  };
  for (const Case& c : cases) {
    FakeShard shard(c.answer);
    ShardSpec spec;
    spec.replicas.push_back(ShardEndpoint{"127.0.0.1", shard.port()});
    ScatterExecutor scatter({spec});
    for (int round = 0; round < 2; ++round) {
      query::VectorSink sink;
      auto outcome = scatter.ExecuteStreaming("SLICE sa=sex=F", sink, {}, "");
      EXPECT_EQ(outcome.status.code(), c.code) << outcome.status;
      EXPECT_EQ(outcome.status.message(),
                "shard 0 (127.0.0.1:" + std::to_string(shard.port()) +
                    "): no room at the shard")
          << c.answer;
    }
  }
}

/// The value of one shard's series in the router's exposition.
uint64_t ShardSeries(const ScatterExecutor& scatter, const std::string& family,
                     size_t shard) {
  std::string out;
  scatter.AppendBackendMetrics(&out);
  const std::string prefix =
      "\n" + family + "{shard=\"" + std::to_string(shard) + "\"";
  size_t at = out.find(prefix);
  EXPECT_NE(at, std::string::npos) << prefix << " in\n" << out;
  if (at == std::string::npos) return 0;
  size_t value = out.find("} ", at) + 2;
  return std::stoull(out.substr(value, out.find('\n', value) - value));
}

// A statement costs each shard one request: the stream head names the
// version, so there is no GET /cubes before it.
TEST_F(ScatterTest, EachStatementIsOneRequestPerShard) {
  Topology topo(2);
  for (const std::string& text : AllVerbTexts()) {
    query::VectorSink sink;
    auto outcome = topo.scatter->ExecuteStreaming(text, sink, {}, "");
    ASSERT_TRUE(outcome.status.ok()) << text << " -> " << outcome.status;
  }
  for (size_t shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(ShardSeries(*topo.scatter, "scubed_shard_requests_total", shard),
              AllVerbTexts().size())
        << "shard " << shard;
  }
}

// Eight threads share one router: every answer still equals the single
// node's. Each shard gets enough handlers for a connection per thread.
TEST_F(ScatterTest, ConcurrentRequestsMatchTheSingleNode) {
  Topology topo(2, /*conns=*/8);
  std::vector<std::string> expected;
  for (const std::string& text : AllVerbTexts()) {
    expected.push_back(Mask(StreamJson(single_.get(), text)));
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < AllVerbTexts().size(); ++k) {
        // Each thread starts at another statement, so different verbs
        // overlap.
        size_t i = (k + t) % AllVerbTexts().size();
        if (Mask(StreamJson(topo.scatter.get(), AllVerbTexts()[i])) !=
            expected[i]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

// The same eight threads against shards with two handlers each: an idle
// keep-alive shard connection gives its handler up to a waiting one, so
// every answer still equals the single node's, no shard request fails, and
// the run takes seconds rather than the shards' 60 s idle timeout.
TEST_F(ScatterTest, MoreConcurrentStatementsThanShardHandlers) {
  Topology topo(2, /*conns=*/2);
  std::vector<std::string> expected;
  for (const std::string& text : AllVerbTexts()) {
    expected.push_back(Mask(StreamJson(single_.get(), text)));
  }
  WallTimer timer;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(8, 0);
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < AllVerbTexts().size(); ++k) {
        size_t i = (k + t) % AllVerbTexts().size();
        if (Mask(StreamJson(topo.scatter.get(), AllVerbTexts()[i])) !=
            expected[i]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LT(timer.Seconds(), 20.0);
  for (size_t t = 0; t < 8; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  for (size_t shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(
        ShardSeries(*topo.scatter, "scubed_shard_failures_total", shard), 0u)
        << "shard " << shard;
  }
}

// A publish that has reached one shard only: a fresh statement is refused
// before any row, a pinned one still answers from v1, and once every shard
// has v2 the answers come from v2. No answer mixes the two.
TEST_F(ScatterTest, RollingPublishNeverMixesVersions) {
  Topology topo(2);
  query::CubeStore v2_store;  // the single-node reference at version 2
  v2_store.Publish("default", MakeGlobalCube());
  v2_store.Publish("default", MakeGlobalCube(500));
  query::QueryService v2(&v2_store, query::ServiceOptions{});

  const std::string text = "DICE sa=sex=F";
  const std::string v1_answer = Mask(StreamJson(single_.get(), text));
  const std::string v2_answer = Mask(StreamJson(&v2, text));
  ASSERT_NE(v1_answer, v2_answer);

  // Page 1 of a paged scan, before the publish.
  query::VectorSink page1;
  auto first_page =
      topo.scatter->ExecuteStreaming(text + " LIMIT 3", page1, {}, "");
  ASSERT_TRUE(first_page.status.ok()) << first_page.status;
  ASSERT_FALSE(first_page.next_cursor.empty());

  std::vector<cube::SegregationCube> v2_parts = Partitioned(2, 500);
  ASSERT_EQ(topo.shards[0]->store.Publish("default", std::move(v2_parts[0])),
            2u);

  query::VectorSink refused_sink;
  auto refused = topo.scatter->ExecuteStreaming(text, refused_sink, {}, "");
  EXPECT_EQ(refused.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(refused.status.message(),
            "cube 'default' is at version 2 on shard 0 (127.0.0.1:" +
                std::to_string(topo.shards[0]->server->port()) +
                ") but version 1 on shard 1 (127.0.0.1:" +
                std::to_string(topo.shards[1]->server->port()) +
                "); retry once the rolling publish settles");
  EXPECT_FALSE(refused.begun);
  EXPECT_TRUE(refused_sink.result().rows.empty());

  query::StreamOutcome pinned;
  EXPECT_EQ(Mask(StreamJson(topo.scatter.get(), text + " FROM default@1",
                            &pinned)),
            v1_answer);
  EXPECT_EQ(pinned.cube_version, 1u);

  // The rest of the paged scan stays on v1.
  std::vector<query::ResultRow> stitched = page1.result().rows;
  std::string cursor = first_page.next_cursor;
  while (!cursor.empty()) {
    query::VectorSink sink;
    auto page =
        topo.scatter->ExecuteStreaming(text + " LIMIT 3", sink, {}, cursor);
    ASSERT_TRUE(page.status.ok()) << page.status;
    EXPECT_EQ(page.cube_version, 1u);
    for (const query::ResultRow& row : sink.result().rows) {
      stitched.push_back(row);
    }
    cursor = page.next_cursor;
  }
  auto v1_rows = single_->ExecuteOne(text);
  ASSERT_TRUE(v1_rows.status.ok());
  ASSERT_EQ(stitched.size(), v1_rows.result.rows.size());
  for (size_t i = 0; i < stitched.size(); ++i) {
    EXPECT_EQ(stitched[i].t, v1_rows.result.rows[i].t) << i;
    EXPECT_EQ(stitched[i].m, v1_rows.result.rows[i].m) << i;
  }

  ASSERT_EQ(topo.shards[1]->store.Publish("default", std::move(v2_parts[1])),
            2u);
  query::StreamOutcome settled;
  EXPECT_EQ(Mask(StreamJson(topo.scatter.get(), text, &settled)), v2_answer);
  EXPECT_EQ(settled.cube_version, 2u);
}

constexpr char kWireHead[] =
    "HTTP/1.1 200 OK\r\nContent-Type: application/x-scube-wire\r\n"
    "Transfer-Encoding: chunked\r\n\r\n";

std::string Chunk(const std::string& payload) {
  char size[16];
  std::snprintf(size, sizeof(size), "%zx\r\n", payload.size());
  return size + payload + "\r\n";
}

/// A shard's whole wire answer to `statement` at `version`: the H line,
/// three rows whose merge keys are a digit then `tag` (so two shards'
/// rows interleave), T and S.
std::string WirePayload(uint64_t version, const std::string& statement,
                        char tag) {
  auto parsed = query::Parse(statement);
  EXPECT_TRUE(parsed.ok()) << statement;
  std::string out;
  query::WireWriter writer([&out](std::string_view bytes) {
    out.append(bytes);
    return true;
  });
  query::ResultHeader header;
  header.version = version;
  if (parsed.ok()) header.verb = parsed->verb;
  writer.Begin(header);
  for (int i = 0; i < 3; ++i) {
    query::ResultRow row;
    row.sa = "sex=F";
    row.ca = std::string("shard=") + tag;
    row.t = 10 + i;
    row.m = 1 + i;
    row.units = 2;
    row.skey = std::string(1, static_cast<char>('0' + i)) + tag;
    writer.Row(row);
  }
  writer.Finish(query::ResultTrailer{});
  return out + query::WireStatusLine(StatusCode::kOk, "", version, false, 3);
}

/// `payload` as one complete chunked 200 response.
FakeAnswer StreamResponse(const std::string& payload) {
  FakeAnswer answer;
  answer.bytes = kWireHead + Chunk(payload) + "0\r\n\r\n";
  return answer;
}

/// The end of the wire payload's first R line.
size_t AfterFirstRow(const std::string& payload) {
  return payload.find('\n', payload.find("\nR\t") + 1) + 1;
}

/// A fake shard answering every statement well at version 1, with rows
/// tagged `tag`.
FakeShard::AnswerFn HealthyShard(char tag) {
  return [tag](const std::string& body) {
    return StreamResponse(WirePayload(1, body, tag));
  };
}

/// Two fake shards behind one router: shard 0 healthy, shard 1 answering
/// DICE well and every other statement with `inject(body)`.
struct FakeTopology {
  FakeShard good;
  FakeShard bad;
  std::unique_ptr<ScatterExecutor> scatter;

  explicit FakeTopology(FakeShard::AnswerFn inject,
                        ScatterOptions options = {})
      : good(HealthyShard('a')),
        bad([inject](const std::string& body) {
          if (body.rfind("DICE", 0) == 0) {
            return StreamResponse(WirePayload(1, body, 'b'));
          }
          return inject(body);
        }) {
    std::vector<ShardSpec> specs(2);
    specs[0].replicas.push_back(ShardEndpoint{"127.0.0.1", good.port()});
    specs[1].replicas.push_back(ShardEndpoint{"127.0.0.1", bad.port()});
    scatter = std::make_unique<ScatterExecutor>(std::move(specs), options);
  }

  std::string BadLabel() const {
    return "shard 1 (127.0.0.1:" + std::to_string(bad.port()) + "): ";
  }

  /// Runs `text`; `rows` gets the rows the sink saw.
  query::StreamOutcome Run(const std::string& text, size_t* rows,
                           bool allow_partial = false,
                           const std::string& cursor = "") {
    query::QueryContext ctx;
    ctx.allow_partial = allow_partial;
    query::VectorSink sink;
    query::StreamOutcome outcome =
        scatter->ExecuteStreaming(text, sink, ctx, cursor);
    *rows = sink.result().rows.size();
    return outcome;
  }

  /// The clean statement after a failure: both shards answer in full.
  void ExpectHealthy() {
    size_t rows = 0;
    auto outcome = Run("DICE sa=sex=F", &rows);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status;
    EXPECT_EQ(rows, 6u);
  }
};

// A request whose shard stream stalls keeps its own connection; a second
// request through the same router does not wait for it.
TEST(ScatterConcurrencyTest, StalledStreamDoesNotHoldUpAnotherRequest) {
  FakeShard shard([](const std::string& body) {
    std::string payload = WirePayload(1, body, 'a');
    if (body.rfind("DICE", 0) != 0) return StreamResponse(payload);
    const size_t cut = AfterFirstRow(payload);
    return FakeAnswer{kWireHead + Chunk(payload.substr(0, cut)), 3.0,
                      Chunk(payload.substr(cut)) + "0\r\n\r\n", false};
  });
  ShardSpec spec;
  spec.replicas.push_back(ShardEndpoint{"127.0.0.1", shard.port()});
  ScatterExecutor scatter({spec});

  std::atomic<bool> stalled_done{false};
  query::StreamOutcome stalled;
  size_t stalled_rows = 0;
  std::thread first([&] {
    query::VectorSink sink;
    stalled = scatter.ExecuteStreaming("DICE sa=sex=F", sink, {}, "");
    stalled_rows = sink.result().rows.size();
    stalled_done = true;
  });
  for (int i = 0; i < 500 && shard.requests() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(shard.requests(), 1);

  query::VectorSink sink;
  auto second = scatter.ExecuteStreaming("SLICE sa=sex=F", sink, {}, "");
  EXPECT_TRUE(second.status.ok()) << second.status;
  EXPECT_EQ(sink.result().rows.size(), 3u);
  EXPECT_FALSE(stalled_done.load())
      << "the second request waited for the stalled one";

  shard.Unstall();
  first.join();
  EXPECT_TRUE(stalled.status.ok()) << stalled.status;
  EXPECT_EQ(stalled_rows, 3u);
}

// Four ways a shard stream breaks. A navigation verb fails with an error
// that names the shard and the cause; TOPK under allow_partial degrades to
// the healthy shard and hands out no cursor. Afterwards a clean statement
// through the same router succeeds, and no statement ever reaches a
// connection that had stalled: a broken connection never went back to the
// idle list.
TEST(ScatterFailureTest, BrokenShardStreamsNameTheShard) {
  struct Injection {
    const char* name;
    FakeShard::AnswerFn answer;
    StatusCode code;
    std::string cause;
  };
  const std::vector<Injection> injections = {
      {"closes mid-row",
       [](const std::string& body) {
         std::string payload = WirePayload(1, body, 'b');
         const size_t cut = AfterFirstRow(payload) + 10;
         return FakeAnswer{kWireHead + Chunk(payload.substr(0, cut)), 0, "",
                           /*close=*/true};
       },
       StatusCode::kIoError, "connection closed"},
      {"truncated chunk",
       [](const std::string& body) {
         std::string payload = WirePayload(1, body, 'b');
         char size[16];
         std::snprintf(size, sizeof(size), "%zx\r\n", payload.size());
         return FakeAnswer{std::string(kWireHead) + size +
                               payload.substr(0, 20),
                           0, "", /*close=*/true};
       },
       StatusCode::kIoError, "connection closed mid-body (20 of "},
      {"stalls past the read timeout",
       [](const std::string& body) {
         std::string payload = WirePayload(1, body, 'b');
         const size_t cut = AfterFirstRow(payload);
         return FakeAnswer{kWireHead + Chunk(payload.substr(0, cut)), 1.0,
                           Chunk(payload.substr(cut)) + "0\r\n\r\n",
                           false};
       },
       StatusCode::kDeadlineExceeded, "receive timed out"},
      {"answers at another version",
       [](const std::string& body) {
         return StreamResponse(WirePayload(2, body, 'b'));
       },
       StatusCode::kInternal,
       "answered version 2 of cube 'default', but the statement pins "
       "version 1"},
  };
  for (const Injection& injection : injections) {
    SCOPED_TRACE(injection.name);
    ScatterOptions options;
    options.client.read_timeout_s = 0.2;
    FakeTopology topo(injection.answer, options);
    // The version case needs a pin to break; the others fail unpinned.
    const std::string from = injection.code == StatusCode::kInternal
                                 ? " FROM default@1"
                                 : "";

    size_t rows = 0;
    auto slice = topo.Run("SLICE sa=sex=F" + from, &rows);
    EXPECT_EQ(slice.status.code(), injection.code) << slice.status;
    EXPECT_EQ(slice.status.message().rfind(topo.BadLabel(), 0), 0u)
        << slice.status;
    EXPECT_NE(slice.status.message().find(injection.cause), std::string::npos)
        << slice.status;

    auto topk = topo.Run("TOPK 3 BY gini" + from + " LIMIT 2", &rows,
                         /*allow_partial=*/true);
    EXPECT_TRUE(topk.status.ok()) << topk.status;
    EXPECT_GT(rows, 0u);
    EXPECT_TRUE(topk.next_cursor.empty());

    topo.ExpectHealthy();
    topo.bad.Stop();
    EXPECT_EQ(topo.bad.requests_after_stall(), 0);
  }
}

// A shard whose stream head names another version than the cursor's or
// the statement's pin fails that shard; shards that disagree on a fresh
// statement are Unavailable, named both.
TEST(ScatterFailureTest, HeadsAtAnotherVersionAreRefused) {
  FakeTopology topo([](const std::string& body) {
    return StreamResponse(WirePayload(2, body, 'b'));
  });
  const std::string pin_error =
      topo.BadLabel() +
      "answered version 2 of cube 'default', but the statement pins "
      "version 1";
  size_t rows = 0;

  const std::string paged = "SLICE sa=sex=F LIMIT 2";
  auto parsed = query::Parse(paged);
  ASSERT_TRUE(parsed.ok());
  const std::string cursor = query::EncodeCursor(
      query::Cursor{"default", 1, query::CursorQueryHash(*parsed), {1, 1}});
  auto resumed = topo.Run(paged, &rows, false, cursor);
  EXPECT_EQ(resumed.status.code(), StatusCode::kInternal);
  EXPECT_EQ(resumed.status.message(), pin_error);
  EXPECT_FALSE(resumed.begun);

  auto at_v1 = topo.Run("SLICE sa=sex=F FROM default@1", &rows);
  EXPECT_EQ(at_v1.status.code(), StatusCode::kInternal);
  EXPECT_EQ(at_v1.status.message(), pin_error);
  EXPECT_FALSE(at_v1.begun);

  for (bool allow_partial : {false, true}) {
    auto fresh = topo.Run("TOPK 3 BY gini", &rows, allow_partial);
    EXPECT_EQ(fresh.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(fresh.status.message(),
              "cube 'default' is at version 1 on shard 0 (127.0.0.1:" +
                  std::to_string(topo.good.port()) +
                  ") but version 2 on shard 1 (127.0.0.1:" +
                  std::to_string(topo.bad.port()) +
                  "); retry once the rolling publish settles");
    EXPECT_FALSE(fresh.begun);
    EXPECT_EQ(rows, 0u);
  }

  auto degraded = topo.Run("TOPK 3 BY gini FROM default@1", &rows,
                           /*allow_partial=*/true);
  EXPECT_TRUE(degraded.status.ok()) << degraded.status;
  EXPECT_EQ(rows, 3u);
  EXPECT_EQ(degraded.cube_version, 1u);
  EXPECT_TRUE(degraded.next_cursor.empty());

  topo.ExpectHealthy();
}

// A shard's own refusal reaches the client under the shard prefix: the
// router builds no error of its own for an unknown cube or version.
TEST_F(ScatterTest, ShardRefusalsPassThroughWithTheShardPrefix) {
  Topology topo(2);
  const std::string shard0 =
      "shard 0 (127.0.0.1:" + std::to_string(topo.shards[0]->server->port()) +
      "): ";
  query::VectorSink sink;
  auto unknown =
      topo.scatter->ExecuteStreaming("SLICE sa=sex=F FROM nosuch", sink, {}, "");
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.status.message(),
            shard0 + "no cube published under 'nosuch'");
  auto evicted = topo.scatter->ExecuteStreaming("SLICE sa=sex=F FROM default@9",
                                                sink, {}, "");
  EXPECT_EQ(evicted.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(evicted.status.message(),
            shard0 + "no version 9 of cube 'default' (evicted or never "
                     "published)");
  EXPECT_FALSE(evicted.begun);
}

// The one retry rule, first half: a keep-alive connection the shard closed
// while it sat idle fails before the head, and the request is resent once
// on a new connection, with no failure counted.
TEST(ScatterRetryTest, StaleKeepAliveConnectionIsResentOnce) {
  FakeShard shard([](const std::string& body) {
    FakeAnswer answer = StreamResponse(WirePayload(1, body, 'a'));
    answer.close = true;  // framed, so the router keeps the connection
    return answer;
  });
  ShardSpec spec;
  spec.replicas.push_back(ShardEndpoint{"127.0.0.1", shard.port()});
  ScatterExecutor scatter({spec});
  for (int i = 0; i < 3; ++i) {
    query::VectorSink sink;
    auto outcome = scatter.ExecuteStreaming("SLICE sa=sex=F", sink, {}, "");
    EXPECT_TRUE(outcome.status.ok()) << i << ": " << outcome.status;
    EXPECT_EQ(sink.result().rows.size(), 3u) << i;
  }
  EXPECT_EQ(shard.requests(), 3);
  EXPECT_EQ(ShardSeries(scatter, "scubed_shard_requests_total", 0), 3u);
  EXPECT_EQ(ShardSeries(scatter, "scubed_shard_failures_total", 0), 0u);
}

// Second half: any other failure before the head moves to the next
// replica; a shard fails only when every replica did.
TEST(ScatterRetryTest, FailedReplicaMovesToTheNext) {
  uint16_t dead_port = 0;
  {
    auto bound = net::ListenSocket::Bind(0, /*loopback_only=*/true);
    ASSERT_TRUE(bound.ok()) << bound.status();
    dead_port = bound->port();
  }  // closed: connecting is refused
  FakeShard live(HealthyShard('a'));
  ShardSpec spec;
  spec.replicas = {ShardEndpoint{"127.0.0.1", dead_port},
                   ShardEndpoint{"127.0.0.1", live.port()}};
  ScatterExecutor scatter({spec});
  for (int i = 0; i < 2; ++i) {  // round robin starts once on each replica
    query::VectorSink sink;
    auto outcome = scatter.ExecuteStreaming("SLICE sa=sex=F", sink, {}, "");
    EXPECT_TRUE(outcome.status.ok()) << i << ": " << outcome.status;
  }
  EXPECT_EQ(ShardSeries(scatter, "scubed_shard_failures_total", 0), 0u);

  ShardSpec dead;
  dead.replicas = {ShardEndpoint{"127.0.0.1", dead_port}};
  ScatterExecutor unreachable({dead});
  query::VectorSink sink;
  auto outcome = unreachable.ExecuteStreaming("SLICE sa=sex=F", sink, {}, "");
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_EQ(ShardSeries(unreachable, "scubed_shard_failures_total", 0), 1u);
}

// Pins the router's shard series over two fixed shard specs, one with two
// replicas (no connection is made). On a mismatch the test prints the
// whole text.
TEST(ScatterMetricsTest, BackendExpositionBytesAreUnchanged) {
  std::vector<ShardSpec> specs(2);
  specs[0].replicas = {ShardEndpoint{"127.0.0.1", 7101},
                       ShardEndpoint{"127.0.0.2", 7101}};
  specs[1].replicas = {ShardEndpoint{"127.0.0.3", 7102}};
  ScatterExecutor scatter(std::move(specs));
  std::string out;
  scatter.AppendBackendMetrics(&out);
  EXPECT_EQ(out.size(), 4661u) << out;
  EXPECT_EQ(HashBytes(out), 0x69dea8ad29b45a43ULL) << out;
}

}  // namespace
}  // namespace cluster
}  // namespace scube
