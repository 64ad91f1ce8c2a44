// Connection tests for scubed's front-end (acceptor + handler pool):
// golden wire transcripts for every route shape — buffered JSON and CSV,
// 404/400 errors, HEAD, streamed and cursor-paged answers, pipelined
// keep-alive, an empty line before a request line, and a first line that
// is not HTTP — then a slow reader on a large streamed answer, graceful Stop() with idle keep-alive connections, an
// idle keep-alive connection yielding its handler to a waiting one, and
// the connection guards: the header-read deadline (slow-loris defence)
// and the keep-alive idle timeout.
//
// Transcripts are compared after masking the fields that legitimately
// differ run to run (timings, cache state, cursor tokens, and the
// Content-Length those shift) and decoding chunk framing.

#include "server/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "net/http.h"
#include "net/socket.h"
#include "query/cube_store.h"
#include "query/service.h"

namespace scube {
namespace server {
namespace {

cube::SegregationCube MakeCube(double south_dissimilarity) {
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
  cube.Insert(make_cell({0}, {2}, 40, 15, south_dissimilarity));
  return cube;
}

/// A cube with `contexts` one-attribute cells — big enough that its
/// streamed answer overflows the kernel's socket buffers several times.
cube::SegregationCube MakeWideCube(size_t contexts) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);
  for (size_t i = 0; i < contexts; ++i) {
    catalog.GetOrAdd(static_cast<fpm::ItemId>(1 + i), "region",
                     "r" + std::to_string(i), AttributeKind::kContext);
  }
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  for (size_t i = 0; i < contexts; ++i) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{
        fpm::Itemset({0}),
        fpm::Itemset({static_cast<fpm::ItemId>(1 + i)})};
    cell.context_size = 100 + i;
    cell.minority_size = 10 + (i % 50);
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] = 0.25;
    cube.Insert(cell);
  }
  return cube;
}

ServerOptions MakeServerOptions() {
  ServerOptions options;
  options.port = 0;
  options.loopback_only = true;
  options.num_connection_threads = 4;
  options.idle_poll_seconds = 0.1;  // fast Stop() in tests
  return options;
}

/// Neutralises the fields that legitimately differ run-to-run (timings,
/// cache state, cursor tokens) so full response bytes can be compared.
std::string Mask(std::string s) {
  s = std::regex_replace(s, std::regex("\"exec_ms\":[0-9.eE+-]+"),
                         "\"exec_ms\":X");
  s = std::regex_replace(s, std::regex("\"cache_hit\":(true|false)"),
                         "\"cache_hit\":X");
  s = std::regex_replace(s, std::regex("\"cells_scanned\":[0-9]+"),
                         "\"cells_scanned\":X");
  s = std::regex_replace(s, std::regex("\"next_cursor\":\"[^\"]*\""),
                         "\"next_cursor\":\"X\"");
  // The digit count of exec_ms varies run-to-run, so the byte length of
  // otherwise-identical bodies (and with it Content-Length and chunk
  // framing) legitimately differs by a byte or two.
  s = std::regex_replace(s, std::regex("Content-Length: [0-9]+"),
                         "Content-Length: X");
  return s;
}

/// Decodes chunked transfer framing so responses can be compared after
/// masking (chunk sizes shift with the masked exec_ms digits). Non-chunked
/// input passes through untouched.
std::string Dechunk(const std::string& raw) {
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return raw;
  const std::string head = raw.substr(0, head_end + 4);
  if (head.find("Transfer-Encoding: chunked") == std::string::npos) {
    return raw;
  }
  std::string body;
  size_t at = head_end + 4;
  while (at < raw.size()) {
    const size_t line_end = raw.find("\r\n", at);
    if (line_end == std::string::npos) break;
    const size_t size = std::stoul(raw.substr(at, line_end - at), nullptr, 16);
    if (size == 0) break;  // terminal chunk
    body += raw.substr(line_end + 2, size);
    at = line_end + 2 + size + 2;  // past the chunk and its trailing CRLF
  }
  return head + body;
}

/// Sends raw request bytes and reads the connection to EOF.
std::string RawExchange(uint16_t port, const std::string& request) {
  auto connected = net::Connect("127.0.0.1", port);
  EXPECT_TRUE(connected.ok()) << connected.status();
  if (!connected.ok()) return "";
  net::Socket socket = std::move(connected).value();
  EXPECT_TRUE(socket.WriteAll(request).ok());
  std::string out;
  char buf[4096];
  while (true) {
    auto n = socket.Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    out.append(buf, *n);
  }
  return out;
}

std::string Req(const std::string& method, const std::string& target,
                const std::string& body = "", bool close = true) {
  std::string r = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
  if (close) r += "Connection: close\r\n";
  if (!body.empty() || method == "POST") {
    r += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  r += "\r\n" + body;
  return r;
}

/// A running server over `cube` published as "default".
struct Served {
  query::CubeStore store;
  query::QueryService service;
  ScubedServer server;

  explicit Served(cube::SegregationCube cube = MakeCube(0.2),
                  ServerOptions options = MakeServerOptions())
      : service(&store, {}), server(&service, options) {
    store.Publish("default", std::move(cube));
    Status started = server.Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  /// The masked, dechunked wire transcript of one raw exchange.
  std::string Transcript(const std::string& request) {
    return Mask(Dechunk(RawExchange(server.port(), request)));
  }
};

// Golden bodies that more than one transcript carries.
constexpr char kHealthzBody[] = R"({"status":"ok","cubes":1})" "\n";

constexpr char kCubesBody[] =
    R"({"cubes":[{"name":"default","version":1,"retained":[1],)"
    R"("cells":3,"defined_cells":3}]})" "\n";

/// The buffered JSON answer to "SLICE sa=sex=F".
constexpr char kSliceJsonBody[] =
    R"({"count":1,"results":[{"query":"SLICE sa=sex=F",)"
    R"("code":"OK","cube":"default","version":1,"cache_hit":X,)"
    R"("exec_ms":X,"result":{"verb":"SLICE",)"
    R"("by":"dissimilarity","rows":[{"sa":"sex=F","ca":"*",)"
    R"("T":100,"M":40,"units":2,"indexes":{"dissimilarity":0.1,)"
    R"("gini":0,"information":0,"isolation":0,"interaction":0,)"
    R"("atkinson":0}},{"sa":"sex=F","ca":"region=north","T":60,)"
    R"("M":25,"units":2,"indexes":{"dissimilarity":0.5,"gini":0,)"
    R"("information":0,"isolation":0,"interaction":0,)"
    R"("atkinson":0}},{"sa":"sex=F","ca":"region=south","T":40,)"
    R"("M":15,"units":2,"indexes":{"dissimilarity":0.2,"gini":0,)"
    R"("information":0,"isolation":0,"interaction":0,)"
    R"("atkinson":0}}],"cells_scanned":X}}]})" "\n";

TEST(GoldenTranscriptTest, HealthzAndCubes) {
  Served fx;
  EXPECT_EQ(fx.Transcript(Req("GET", "/healthz")),
            std::string("HTTP/1.1 200 OK\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: X\r\n"
                        "Connection: close\r\n"
                        "\r\n") +
                kHealthzBody);
  EXPECT_EQ(fx.Transcript(Req("GET", "/cubes")),
            std::string("HTTP/1.1 200 OK\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: X\r\n"
                        "Connection: close\r\n"
                        "\r\n") +
                kCubesBody);
}

TEST(GoldenTranscriptTest, BufferedJsonAndCsvQueries) {
  Served fx;
  EXPECT_EQ(fx.Transcript(Req("POST", "/query", "SLICE sa=sex=F")),
            std::string("HTTP/1.1 200 OK\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: X\r\n"
                        "Connection: close\r\n"
                        "\r\n") +
                kSliceJsonBody);
  EXPECT_EQ(fx.Transcript(Req("POST", "/query?format=csv", "SLICE sa=sex=F")),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/csv; charset=utf-8\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "Content-Disposition: attachment; "
            R"(filename="scube_query.csv")" "\r\n"
            "\r\n"
            "# query 0: SLICE sa=sex=F [OK]\n"
            "sa,ca,T,M,units,dissimilarity,gini,information,isolation,"
            "interaction,atkinson\n"
            "sex=F,*,100,40,2,0.1,0,0,0,0,0\n"
            "sex=F,region=north,60,25,2,0.5,0,0,0,0,0\n"
            "sex=F,region=south,40,15,2,0.2,0,0,0,0,0\n");

  // A three-statement batch: a page that hands out a resume cursor, a
  // statement that fails with a message, and the first statement again.
  // Each statement is answered in its own slot, in order.
  const std::string batch =
      "DICE sa=sex=F LIMIT 1\nSLICE sa=sex=X\nDICE sa=sex=F LIMIT 1\n";
  const std::string dice_json =
      R"({"query":"DICE sa=sex=F LIMIT 1","code":"OK","cube":"default",)"
      R"("version":1,"cache_hit":X,"exec_ms":X,"result":{"verb":"DICE",)"
      R"("by":"dissimilarity","rows":[{"sa":"sex=F","ca":"*","T":100,)"
      R"("M":40,"units":2,"indexes":{"dissimilarity":0.1,"gini":0,)"
      R"("information":0,"isolation":0,"interaction":0,"atkinson":0}}],)"
      R"("cells_scanned":X,"next_cursor":"X"}})";
  EXPECT_EQ(fx.Transcript(Req("POST", "/query", batch)),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "\r\n"
            R"({"count":3,"results":[)" +
                dice_json +
                R"(,{"query":"SLICE sa=sex=X","code":"NotFound",)"
                R"("message":"unknown value 'X' for attribute 'sex'",)"
                R"("cube":"default","version":1,"cache_hit":X,)"
                R"("exec_ms":X,"result":null},)" +
                dice_json + "]}\n");
  // CSV leaves the cursor unmasked: the token is deterministic (cube,
  // version, resume position and statement fingerprint).
  const std::string dice_csv =
      "sa,ca,T,M,units,dissimilarity,gini,information,isolation,"
      "interaction,atkinson\n"
      "sex=F,*,100,40,2,0.1,0,0,0,0,0\n"
      "# next_cursor: c2NxMXwxfDF8OGM4ZjVmN2FiNGZjYmJhNnxkZWZhdWx0\n";
  EXPECT_EQ(fx.Transcript(Req("POST", "/query?format=csv", batch)),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/csv; charset=utf-8\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "Content-Disposition: attachment; "
            R"(filename="scube_query.csv")" "\r\n"
            "\r\n"
            "# query 0: DICE sa=sex=F LIMIT 1 [OK]\n" +
                dice_csv +
                "\n"
                "# query 1: SLICE sa=sex=X [NotFound]\n"
                "\n"
                "# query 2: DICE sa=sex=F LIMIT 1 [OK]\n" +
                dice_csv);
}


TEST(GoldenTranscriptTest, UnknownRouteIs404AndEmptyBodyIs400) {
  Served fx;
  EXPECT_EQ(fx.Transcript(Req("GET", "/no/such/route")),
            "HTTP/1.1 404 Not Found\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "\r\n"
            R"({"error":"no route for /no/such/route"})" "\n");
  EXPECT_EQ(fx.Transcript(Req("POST", "/query", "")),
            "HTTP/1.1 400 Bad Request\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "\r\n"
            R"j({"error":"empty query body (one SCubeQL statement per )j"
            R"j(line)"})j" "\n");
}

TEST(GoldenTranscriptTest, HeadCarriesTheHeadersOnly) {
  Served fx;
  // The true Content-Length of the GET body, but no body bytes.
  EXPECT_EQ(fx.Transcript(Req("HEAD", "/healthz")),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "\r\n");
  const std::string raw =
      RawExchange(fx.server.port(), Req("HEAD", "/healthz"));
  const std::string length =
      "Content-Length: " + std::to_string(std::string(kHealthzBody).size());
  EXPECT_NE(raw.find(length), std::string::npos) << raw;
}

TEST(GoldenTranscriptTest, StreamedAnswerAndCursorPage) {
  Served fx;
  EXPECT_EQ(
      fx.Transcript(Req("POST", "/query?stream=1", "SLICE sa=sex=F")),
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Transfer-Encoding: chunked\r\n"
      "Connection: close\r\n"
      "\r\n"
      R"({"query":"SLICE sa=sex=F","result":{"verb":"SLICE",)"
      R"("by":"dissimilarity","rows":[{"sa":"sex=F","ca":"*",)"
      R"("T":100,"M":40,"units":2,"indexes":{"dissimilarity":0.1,)"
      R"("gini":0,"information":0,"isolation":0,"interaction":0,)"
      R"("atkinson":0}},{"sa":"sex=F","ca":"region=north","T":60,)"
      R"("M":25,"units":2,"indexes":{"dissimilarity":0.5,"gini":0,)"
      R"("information":0,"isolation":0,"interaction":0,)"
      R"("atkinson":0}},{"sa":"sex=F","ca":"region=south","T":40,)"
      R"("M":15,"units":2,"indexes":{"dissimilarity":0.2,"gini":0,)"
      R"("information":0,"isolation":0,"interaction":0,)"
      R"("atkinson":0}}],"cells_scanned":X},"code":"OK",)"
      R"("cube":"default","version":1,"cache_hit":X,"rows":3})" "\n");

  const std::string page1 = RawExchange(
      fx.server.port(),
      Req("POST", "/query?stream=1", "SLICE sa=sex=F LIMIT 2"));
  EXPECT_EQ(
      Mask(Dechunk(page1)),
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Transfer-Encoding: chunked\r\n"
      "Connection: close\r\n"
      "\r\n"
      R"({"query":"SLICE sa=sex=F LIMIT 2",)"
      R"("result":{"verb":"SLICE","by":"dissimilarity",)"
      R"("rows":[{"sa":"sex=F","ca":"*","T":100,"M":40,"units":2,)"
      R"("indexes":{"dissimilarity":0.1,"gini":0,"information":0,)"
      R"("isolation":0,"interaction":0,"atkinson":0}},)"
      R"({"sa":"sex=F","ca":"region=north","T":60,"M":25,)"
      R"("units":2,"indexes":{"dissimilarity":0.5,"gini":0,)"
      R"("information":0,"isolation":0,"interaction":0,)"
      R"("atkinson":0}}],"cells_scanned":X,"next_cursor":"X"},)"
      R"("code":"OK","cube":"default","version":1,"cache_hit":X,)"
      R"("rows":2})" "\n");

  const size_t cursor_at = page1.find("\"next_cursor\":\"");
  ASSERT_NE(cursor_at, std::string::npos) << page1;
  const size_t start = cursor_at + 15;
  const std::string cursor =
      page1.substr(start, page1.find('"', start) - start);
  EXPECT_EQ(
      fx.Transcript(Req("POST", "/query?stream=1&cursor=" + cursor,
                        "SLICE sa=sex=F LIMIT 2")),
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Transfer-Encoding: chunked\r\n"
      "Connection: close\r\n"
      "\r\n"
      R"({"query":"SLICE sa=sex=F LIMIT 2",)"
      R"("result":{"verb":"SLICE","by":"dissimilarity",)"
      R"("rows":[{"sa":"sex=F","ca":"region=south","T":40,"M":15,)"
      R"("units":2,"indexes":{"dissimilarity":0.2,"gini":0,)"
      R"("information":0,"isolation":0,"interaction":0,)"
      R"("atkinson":0}}],"cells_scanned":X},"code":"OK",)"
      R"("cube":"default","version":1,"cache_hit":X,"rows":1})" "\n");
}

TEST(GoldenTranscriptTest, OversizedContentLengthIs400) {
  Served fx;
  // Content-Length over the body cap fails in the header phase: 400 and
  // close, before any body byte is read.
  EXPECT_EQ(fx.Transcript("POST /query HTTP/1.1\r\nHost: t\r\n"
                          "Content-Length: 99999999\r\n\r\n"),
            "HTTP/1.1 400 Bad Request\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "\r\n"
            R"({"error":"request body of 99999999 bytes exceeds the )"
            R"(limit of 4194304"})" "\n");
}

TEST(GoldenTranscriptTest, PipelinedKeepAliveAnswersInOrder) {
  Served fx;
  // Three requests written before any response is read: each answer
  // follows in order on the one connection, the last one closing it.
  const std::string burst = Req("GET", "/healthz", "", /*close=*/false) +
                            Req("GET", "/cubes", "", /*close=*/false) +
                            Req("POST", "/query", "SLICE sa=sex=F");
  const std::string keep_alive_head =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: X\r\n"
      "Connection: keep-alive\r\n"
      "\r\n";
  EXPECT_EQ(fx.Transcript(burst),
            keep_alive_head + kHealthzBody + keep_alive_head + kCubesBody +
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: X\r\n"
                "Connection: close\r\n"
                "\r\n" +
                kSliceJsonBody);
}

// RFC 9112 §2.2: one empty line before a request line is skipped. A
// second one is a malformed request line: 400, then close.
TEST(GoldenTranscriptTest, EmptyLineBeforeTheFirstRequestIsSkipped) {
  Served fx;
  EXPECT_EQ(fx.Transcript("\r\n" + Req("GET", "/healthz")),
            std::string("HTTP/1.1 200 OK\r\n"
                        "Content-Type: application/json\r\n"
                        "Content-Length: X\r\n"
                        "Connection: close\r\n"
                        "\r\n") +
                kHealthzBody);
  EXPECT_EQ(fx.Transcript("\r\n\r\n" + Req("GET", "/healthz")),
            "HTTP/1.1 400 Bad Request\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "\r\n"
            R"({"error":"malformed request line: "})" "\n");
}

// The same between keep-alive requests: a stray CRLF after a request does
// not end the connection, two of them do.
TEST(GoldenTranscriptTest, EmptyLineBetweenKeepAliveRequestsIsSkipped) {
  Served fx;
  const std::string first = Req("GET", "/healthz", "", /*close=*/false);
  const std::string keep_alive_head =
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: X\r\n"
      "Connection: keep-alive\r\n"
      "\r\n";
  EXPECT_EQ(fx.Transcript(first + "\r\n" + Req("GET", "/cubes")),
            keep_alive_head + kHealthzBody +
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: X\r\n"
                "Connection: close\r\n"
                "\r\n" +
                kCubesBody);
  EXPECT_EQ(fx.Transcript(first + "\r\n\r\n" + Req("GET", "/cubes")),
            keep_alive_head + kHealthzBody +
                "HTTP/1.1 400 Bad Request\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: X\r\n"
                "Connection: close\r\n"
                "\r\n"
                R"({"error":"malformed request line: "})" "\n");
}

// Every connection is HTTP from its first byte: a SCubeQL statement as the
// first line is a request line with an unknown protocol. It is answered
// 400 and the connection closes; no statement runs.
TEST(GoldenTranscriptTest, NonHttpFirstLineIsRefused) {
  Served fx;
  EXPECT_EQ(fx.Transcript("TOPK 1 BY dissimilarity\nQUIT\n"),
            "HTTP/1.1 400 Bad Request\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: X\r\n"
            "Connection: close\r\n"
            "\r\n"
            R"({"error":"unsupported protocol: dissimilarity"})" "\n");
  EXPECT_EQ(fx.service.stats().accepted, 0u);
}

TEST(ConnectionTest, SlowReaderReceivesALargeStreamIntact) {
  // A streamed answer many times the socket buffers, read by a client
  // that does not start reading until the writer has blocked: every byte
  // and the terminal chunk must still arrive.
  Served fx(MakeWideCube(6000));

  auto connected = net::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  ASSERT_TRUE(
      socket.WriteAll(Req("POST", "/query?stream=1", "SLICE sa=sex=F"))
          .ok());
  // Let the server fill the socket buffers and block on the write.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::string out;
  char buf[4096];
  while (true) {
    auto n = socket.Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    out.append(buf, *n);
  }
  ASSERT_GE(out.size(), 5u);
  EXPECT_EQ(out.substr(out.size() - 5), "0\r\n\r\n");  // terminal chunk
  const std::string body = Dechunk(out);
  EXPECT_NE(body.find("\"rows\":6000"), std::string::npos);
  EXPECT_NE(body.find("\"code\":\"OK\""), std::string::npos);
  EXPECT_NE(body.find("\"ca\":\"region=r5999\""), std::string::npos);
  fx.server.Stop();
  EXPECT_EQ(fx.server.metrics().open_connections.load(), 0);
}

TEST(ConnectionTest, StopClosesIdleKeepAliveConnections) {
  Served fx;

  // One more idle connection than handler threads: four are held by a
  // handler, the fifth waits in the accept queue.
  std::vector<net::Socket> idle;
  for (int i = 0; i < 5; ++i) {
    auto connected = net::Connect("127.0.0.1", fx.server.port());
    ASSERT_TRUE(connected.ok());
    idle.push_back(std::move(connected).value());
  }
  // Wait for the acceptor to take them.
  const auto& open = fx.server.metrics().open_connections;
  for (int i = 0; i < 200 && open.load() < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(open.load(), 5);
  WallTimer timer;
  fx.server.Stop();
  EXPECT_LT(timer.Millis(), 2000);
  for (net::Socket& socket : idle) {
    char buf[16];
    auto n = socket.Read(buf, sizeof(buf));
    EXPECT_TRUE(n.ok() && *n == 0);  // orderly close
  }
  EXPECT_EQ(open.load(), 0);
}

// Between keep-alive requests an idle connection gives its handler up to a
// connection waiting for one. With a single handler, B is answered while
// A, its request answered, sits idle; without the yield, B would wait out
// A's 60 s idle timeout. A is closed, and the close is counted.
TEST(KeepAliveYieldTest, IdleConnectionYieldsItsHandlerToAWaitingOne) {
  ServerOptions options = MakeServerOptions();
  options.num_connection_threads = 1;
  options.idle_poll_seconds = 0.05;
  Served fx(MakeCube(0.2), options);
  net::ClientOptions client;
  client.read_timeout_s = 5.0;

  net::ClientConnection a;
  ASSERT_TRUE(
      net::OpenClientConnection("127.0.0.1", fx.server.port(), client, &a)
          .ok());
  auto first = net::RoundTrip(&a.socket, a.reader.get(), "GET", "/healthz");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->body, kHealthzBody);

  net::ClientConnection b;
  ASSERT_TRUE(
      net::OpenClientConnection("127.0.0.1", fx.server.port(), client, &b)
          .ok());
  WallTimer timer;
  auto second = net::RoundTrip(&b.socket, b.reader.get(), "GET", "/healthz");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->body, kHealthzBody);
  EXPECT_LT(timer.Millis(), 2000);

  char buf[16];
  auto n = a.socket.Read(buf, sizeof(buf));
  EXPECT_TRUE(n.ok() && *n == 0);  // orderly close
  EXPECT_GE(fx.server.metrics().connections_closed.load(), 1u);
  fx.server.Stop();
}

TEST(ThreadedGuardTest, SlowLorisTrickleCannotPinAHandlerThread) {
  // A byte-at-a-time header trickle resets the per-read SO_RCVTIMEO every
  // byte; only the total read deadline stops it. Before that fix this
  // connection held a handler thread for as long as it kept dripping.
  ServerOptions options = MakeServerOptions();
  options.request_read_seconds = 0.4;
  Served fx(MakeCube(0.2), options);

  auto connected = net::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  ASSERT_TRUE(socket.WriteAll("GET /healthz HTTP/1.1\r\n").ok());
  socket.SetRecvTimeout(0.05);
  WallTimer timer;
  std::string got;
  bool over = false;
  while (timer.Millis() < 5000) {
    if (!socket.WriteAll("a").ok()) {  // keep dripping header bytes
      over = true;
      break;
    }
    char buf[256];
    auto n = socket.Read(buf, sizeof(buf));
    if (n.ok() && *n == 0) {
      over = true;
      break;
    }
    if (n.ok()) {
      got.append(buf, *n);
      continue;  // drain the 408 until the close
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(over) << "server never gave up on the trickle";
  EXPECT_LT(timer.Millis(), 3000);
  EXPECT_NE(got.find("408"), std::string::npos) << got;
  EXPECT_GE(fx.server.metrics().header_deadline_closes.load(), 1u);
  fx.server.Stop();
}

TEST(ThreadedGuardTest, IdleTimeoutClosesAndCounts) {
  ServerOptions options = MakeServerOptions();
  options.idle_timeout_seconds = 0.3;
  Served fx(MakeCube(0.2), options);

  auto connected = net::Connect("127.0.0.1", fx.server.port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  WallTimer timer;
  char buf[16];
  auto n = socket.Read(buf, sizeof(buf));
  EXPECT_TRUE(n.ok() && *n == 0);
  EXPECT_LT(timer.Millis(), 3000);
  EXPECT_GE(fx.server.metrics().idle_timeout_closes.load(), 1u);
  fx.server.Stop();
}

}  // namespace
}  // namespace server
}  // namespace scube
