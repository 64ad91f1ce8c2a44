// The sharded-serving property test: a ScatterExecutor over 1, 2 and 4
// real shard servers (in-process ScubedServers on loopback ports, each
// holding its partition of one global cube) must produce byte-identical
// output to a single-node QueryService over the unsharded cube — for all
// seven verbs, JSON and CSV, buffered and streamed — with only the scan
// accounting (cells_scanned, ghosts are scanned twice) and cursor tokens
// masked. Plus the composite-cursor lifecycle and the failure policy.

#include "cluster/scatter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/partition.h"
#include "common/hashing.h"
#include "cube/cube.h"
#include "net/http.h"
#include "net/socket.h"
#include "query/cube_store.h"
#include "query/row_sink.h"
#include "query/service.h"
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
/// every merge has to interleave.
cube::SegregationCube MakeGlobalCube() {
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
  uint64_t t = 400;
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

server::ServerOptions MakeServerOptions() {
  server::ServerOptions options;
  options.port = 0;  // ephemeral
  options.loopback_only = true;
  options.num_connection_threads = 4;
  options.idle_poll_seconds = 0.1;  // fast Stop() in tests
  return options;
}

/// One in-process "shard scubed": store + service + HTTP server.
struct ShardProcess {
  query::CubeStore store;
  std::unique_ptr<query::QueryService> service;
  std::unique_ptr<server::ScubedServer> server;

  explicit ShardProcess(cube::SegregationCube cube) {
    store.Publish("default", std::move(cube));
    service = std::make_unique<query::QueryService>(&store,
                                                    query::ServiceOptions{});
    server = std::make_unique<server::ScubedServer>(service.get(),
                                                    MakeServerOptions());
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started;
  }
};

/// An n-shard topology: partitioned shard servers plus the router-side
/// scatter executor pointed at them.
struct Topology {
  std::vector<std::unique_ptr<ShardProcess>> shards;
  std::unique_ptr<ScatterExecutor> scatter;

  explicit Topology(size_t n) {
    cube::CubeView view = MakeGlobalCube().Seal(1);
    PartitionOptions options;
    options.num_shards = n;
    std::vector<cube::SegregationCube> parts = PartitionCube(view, options);
    std::vector<ShardSpec> specs;
    for (size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<ShardProcess>(std::move(parts[i])));
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
        // Pages that continue hand out *scatter* cursors, and they must
        // round-trip through the public codec.
        auto decoded = DecodeScatterCursor(cursor);
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        EXPECT_EQ(decoded->cube, "default");
        EXPECT_EQ(decoded->consumed.size(), 4u);
        EXPECT_EQ(EncodeScatterCursor(*decoded), cursor);
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

TEST_F(ScatterTest, ScatterCursorCodecRejectsForeignTokens) {
  ScatterCursor cursor;
  cursor.cube = "cube|with|pipes";  // the separator char, worst case
  cursor.version = 12;
  cursor.query_hash = 0xdeadbeefcafef00dULL;
  cursor.consumed = {0, 17, 3};
  auto decoded = DecodeScatterCursor(EncodeScatterCursor(cursor));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->cube, cursor.cube);
  EXPECT_EQ(decoded->version, cursor.version);
  EXPECT_EQ(decoded->query_hash, cursor.query_hash);
  EXPECT_EQ(decoded->consumed, cursor.consumed);

  EXPECT_FALSE(DecodeScatterCursor("garbage!").ok());
  EXPECT_FALSE(DecodeScatterCursor("").ok());
  // A single-node cursor is a different magic — must not half-parse.
  EXPECT_FALSE(DecodeScatterCursor("c2NxMXw0fDB8ZGVmYXVsdA").ok());
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

/// A stand-in shard that speaks just enough HTTP for the router: GET
/// /cubes lists cube "default" at version 1, and every other request gets
/// `answer`'s raw bytes. A connection closes after an answer framed by
/// close. Declare it before the router, whose open connection it serves.
class FakeShard {
 public:
  explicit FakeShard(std::string answer) : answer_(std::move(answer)) {
    auto bound = net::ListenSocket::Bind(0, /*loopback_only=*/true);
    EXPECT_TRUE(bound.ok()) << bound.status();
    listener_ = std::move(bound).value();
    thread_ = std::thread([this] { Serve(); });
  }
  ~FakeShard() {
    listener_.ShutdownAccept();
    thread_.join();
  }
  FakeShard(const FakeShard&) = delete;
  FakeShard& operator=(const FakeShard&) = delete;

  uint16_t port() const { return listener_.port(); }

 private:
  void Serve() {
    const bool closes = answer_.find("Connection: close") != std::string::npos;
    for (;;) {
      auto conn = listener_.Accept();
      if (!conn.ok()) return;
      net::BufferedReader reader(&*conn);
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
        if (!conn->WriteAll(answer_).ok() || closes) break;
      }
    }
  }

  std::string answer_;
  net::ListenSocket listener_;
  std::thread thread_;
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
