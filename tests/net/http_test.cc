#include "net/http.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "net/socket.h"

namespace scube {
namespace net {
namespace {

/// A connected socket pair: write raw bytes into `feeder`, parse from
/// `reader_socket`.
struct Pair {
  Socket feeder;
  Socket reader_socket;

  Pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    feeder = Socket(fds[0]);
    reader_socket = Socket(fds[1]);
  }
};

HttpRequest MustParse(const std::string& raw) {
  Pair pair;
  EXPECT_TRUE(pair.feeder.WriteAll(raw).ok());
  pair.feeder.Close();  // EOF so body reads terminate
  BufferedReader reader(&pair.reader_socket);
  auto line = reader.ReadLine();
  EXPECT_TRUE(line.ok()) << line.status();
  auto request = ReadHttpRequest(&reader, *line);
  EXPECT_TRUE(request.ok()) << request.status();
  return std::move(request).value();
}

/// Writes `wire` into a fresh socket pair from a thread, `chunk` bytes per
/// write, then closes the writing end (EOF); `read` runs meanwhile on a
/// reader over the other end. Closing the reading end afterwards fails any
/// write the reader left unconsumed, so the writer always finishes.
template <typename ReadFn>
void OverSocketPair(const std::string& wire, size_t chunk, ReadFn read) {
  Pair pair;
  chunk = std::max<size_t>(chunk, 1);
  std::thread writer([&pair, &wire, chunk] {
    for (size_t at = 0; at < wire.size(); at += chunk) {
      if (!pair.feeder.WriteAll(std::string_view(wire).substr(at, chunk))
               .ok()) {
        break;
      }
    }
    pair.feeder.Close();
  });
  {
    BufferedReader reader(&pair.reader_socket);
    read(&reader);
  }
  pair.reader_socket.Close();
  writer.join();
}

/// One parsed request as a table cell: "METHOD path keep-alive|close
/// body=<body>".
std::string Summary(const HttpRequest& request) {
  return request.method + " " + request.path +
         (request.keep_alive ? " keep-alive" : " close") +
         " body=" + request.body;
}

struct ReadOutcome {
  StatusCode code = StatusCode::kOk;
  std::string text;
};

/// Reads every request on `wire` the way the server's connection loop
/// does, less its skip of one empty line before a request line: the
/// request line by ReadLine, the rest by ReadHttpRequest, until EOF or the
/// first error. Parsed requests render as Summary() joined by
/// " | "; an error ends the outcome with its code and message.
ReadOutcome ReadRequests(const std::string& wire, size_t chunk) {
  ReadOutcome outcome;
  OverSocketPair(wire, chunk, [&outcome](BufferedReader* reader) {
    for (;;) {
      auto line = reader->ReadLine();
      if (!line.ok()) return;  // EOF between requests
      auto request = ReadHttpRequest(reader, *line);
      if (!request.ok()) {
        outcome.code = request.status().code();
        outcome.text = request.status().message();
        return;
      }
      if (!outcome.text.empty()) outcome.text += " | ";
      outcome.text += Summary(*request);
    }
  });
  return outcome;
}

std::string HeaderLines(size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out += "X-Header-" + std::to_string(i) + ": v\r\n";
  }
  return out;
}

TEST(UrlDecodeTest, DecodesEscapesAndPlus) {
  EXPECT_EQ(UrlDecode("a%20b"), "a b");
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("T%20%3E%3D%2030"), "T >= 30");
  EXPECT_EQ(UrlDecode("100%"), "100%");  // bad escape passes through
}

TEST(ParseTargetTest, SplitsPathAndParams) {
  std::string path;
  std::map<std::string, std::string> params;
  ParseTarget("/query?format=csv&deadline_ms=250", &path, &params);
  EXPECT_EQ(path, "/query");
  EXPECT_EQ(params["format"], "csv");
  EXPECT_EQ(params["deadline_ms"], "250");

  ParseTarget("/healthz", &path, &params);
  EXPECT_EQ(path, "/healthz");
  EXPECT_TRUE(params.empty());
}

TEST(HttpRequestTest, ParsesGetWithHeaders) {
  HttpRequest req = MustParse(
      "GET /metrics HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom: value\r\n"
      "\r\n");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.Header("host"), "localhost");
  EXPECT_EQ(req.Header("x-custom"), "value");
  EXPECT_TRUE(req.keep_alive);  // HTTP/1.1 default
}

TEST(HttpRequestTest, ParsesPostBodyByContentLength) {
  std::string body = "TOPK 5 BY dissimilarity\nSLICE sa=sex=F";
  HttpRequest req = MustParse(
      "POST /query?format=json HTTP/1.1\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "\r\n" + body);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/query");
  EXPECT_EQ(req.Param("format"), "json");
  EXPECT_EQ(req.body, body);
}

TEST(HttpRequestTest, ConnectionCloseAndHttp10Defaults) {
  HttpRequest close_req = MustParse(
      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_FALSE(close_req.keep_alive);
  HttpRequest http10 = MustParse("GET / HTTP/1.0\r\n\r\n");
  EXPECT_FALSE(http10.keep_alive);
  HttpRequest http10_keep = MustParse(
      "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_TRUE(http10_keep.keep_alive);
}

TEST(HttpRequestTest, RejectsMalformedAndOversized) {
  Pair pair;
  ASSERT_TRUE(pair.feeder.WriteAll("BROKEN\r\n\r\n").ok());
  pair.feeder.Close();
  BufferedReader reader(&pair.reader_socket);
  auto line = reader.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_FALSE(ReadHttpRequest(&reader, *line).ok());

  Pair big;
  ASSERT_TRUE(big.feeder
                  .WriteAll("POST /query HTTP/1.1\r\n"
                            "Content-Length: 999999999\r\n\r\n")
                  .ok());
  big.feeder.Close();
  BufferedReader big_reader(&big.reader_socket);
  auto big_line = big_reader.ReadLine();
  ASSERT_TRUE(big_line.ok());
  auto status = ReadHttpRequest(&big_reader, *big_line);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kInvalidArgument);
}

// The server's answer to every request shape, pinned: status code and
// message decide the 400 body a client sees, so they must not move when
// the reader changes. Every row is read twice, from one write and one
// byte per write.
TEST(ReadHttpRequestTest, StatusAndMessageForEveryRequestShape) {
  struct Row {
    const char* name;
    std::string wire;
    StatusCode code;
    std::string text;
  };
  const std::vector<Row> rows = {
      {"malformed request line", "BROKEN\r\n\r\n", StatusCode::kParseError,
       "malformed request line: BROKEN"},
      {"unsupported protocol", "GET / HTTP/9.9\r\n\r\n",
       StatusCode::kParseError, "unsupported protocol: HTTP/9.9"},
      {"bad Content-Length",
       "POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
       StatusCode::kParseError, "bad Content-Length: abc"},
      {"negative Content-Length",
       "POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
       StatusCode::kParseError, "bad Content-Length: -1"},
      {"oversized Content-Length",
       "POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
       StatusCode::kInvalidArgument,
       "request body of 999999999 bytes exceeds the limit of 4194304"},
      {"header without a colon",
       "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n", StatusCode::kParseError,
       "malformed header: no-colon-here"},
      {"129 header lines",
       "GET / HTTP/1.1\r\n" + HeaderLines(129) + "\r\n",
       StatusCode::kParseError, "more than 128 headers"},
      {"128 header lines",
       "GET / HTTP/1.1\r\n" + HeaderLines(128) + "\r\n", StatusCode::kOk,
       "GET / keep-alive body="},
      {"chunked request body",
       "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       StatusCode::kUnimplemented, "chunked transfer encoding not supported"},
      {"100,000-byte header line",
       "GET / HTTP/1.1\r\nX-Long: " + std::string(100000, 'a') +
           "\r\n\r\n",
       StatusCode::kIoError, "line exceeds 65536 bytes"},
      {"body cut short",
       "POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345",
       StatusCode::kIoError, "connection closed mid-body (5 of 10 bytes)"},
      {"whole body",
       "POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n1234567890",
       StatusCode::kOk, "POST /query keep-alive body=1234567890"},
      {"HTTP/1.0", "GET / HTTP/1.0\r\n\r\n", StatusCode::kOk,
       "GET / close body="},
      {"HTTP/1.0 keep-alive",
       "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
       StatusCode::kOk, "GET / keep-alive body="},
      {"HTTP/1.1 close", "GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
       StatusCode::kOk, "GET / close body="},
      {"two pipelined requests",
       "POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nTOPK"
       "GET /cubes HTTP/1.1\r\n\r\n",
       StatusCode::kOk,
       "POST /query keep-alive body=TOPK | GET /cubes keep-alive body="},
  };
  for (const Row& row : rows) {
    for (size_t chunk : {row.wire.size(), size_t{1}}) {
      ReadOutcome got = ReadRequests(row.wire, chunk);
      EXPECT_EQ(got.code, row.code) << row.name << ", chunk " << chunk;
      EXPECT_EQ(got.text, row.text) << row.name << ", chunk " << chunk;
    }
  }
  // A head cut off by EOF: the peer is gone, so only the code is pinned.
  for (const char* wire : {"GET / HTTP/1.1\r\nHost: x",
                           "GET / HTTP/1.1\r\nno-colon",
                           "GET / HTTP/1.1\r\nHost: x\r\n",
                           "POST /query HTTP/1.1\r\nContent-Length: 3\r\n"}) {
    EXPECT_EQ(ReadRequests(wire, std::string(wire).size()).code,
              StatusCode::kIoError)
        << wire;
  }
}

TEST(HttpResponseTest, SerialisesWithLengthAndConnection) {
  HttpResponse resp(200, "{\"ok\":true}");
  resp.SetHeader("Retry-After", "1");
  std::string wire = SerializeResponse(resp, /*keep_alive=*/false);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);
}

TEST(HttpRoundTripTest, ClientParsesServerResponse) {
  Pair pair;
  HttpResponse resp(503, "{\"error\":\"full\"}\n");
  resp.SetHeader("Retry-After", "1");
  ASSERT_TRUE(
      pair.feeder.WriteAll(SerializeResponse(resp, /*keep_alive=*/true))
          .ok());
  BufferedReader reader(&pair.reader_socket);
  auto parsed = ReadHttpResponse(&reader);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status, 503);
  EXPECT_EQ(parsed->headers.at("retry-after"), "1");
  EXPECT_EQ(parsed->body, "{\"error\":\"full\"}\n");
}

TEST(ChunkedWriterTest, FramesHeadChunksAndTerminator) {
  std::string wire;
  ChunkedWriter writer(
      [&wire](std::string_view data) {
        wire.append(data);
        return Status::OK();
      },
      /*flush_bytes=*/1024);
  HttpResponse head;
  head.content_type = "application/json";
  ASSERT_TRUE(writer.WriteHead(head, /*keep_alive=*/true).ok());
  // Chunked head: Transfer-Encoding, never Content-Length.
  EXPECT_NE(wire.find("Transfer-Encoding: chunked\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);

  ASSERT_TRUE(writer.Write("hello ").ok());
  ASSERT_TRUE(writer.Write("world").ok());
  ASSERT_TRUE(writer.Finish().ok());
  // One coalesced chunk ("hello world" = 0xb bytes) plus the terminator.
  EXPECT_NE(wire.find("\r\n\r\nb\r\nhello world\r\n0\r\n\r\n"),
            std::string::npos)
      << wire;
  EXPECT_EQ(writer.bytes_written(), wire.size());
}

TEST(ChunkedWriterTest, FlushesAtThresholdKeepingBufferBounded) {
  std::string wire;
  size_t flush_bytes = 64;
  ChunkedWriter writer(
      [&wire](std::string_view data) {
        wire.append(data);
        return Status::OK();
      },
      flush_bytes);
  HttpResponse head;
  ASSERT_TRUE(writer.WriteHead(head, true).ok());
  // Stream far more payload than the flush threshold: the peak buffer
  // must stay near the threshold, not grow with the body.
  std::string piece(10, 'x');
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(writer.Write(piece).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_LT(writer.peak_buffer_bytes(), flush_bytes + piece.size());
  EXPECT_NE(wire.find("0\r\n\r\n"), std::string::npos);
}

TEST(ChunkedWriterTest, LatchesTransportFailure) {
  int writes = 0;
  ChunkedWriter writer([&writes](std::string_view) {
    ++writes;
    return Status::IoError("peer gone");
  });
  HttpResponse head;
  EXPECT_FALSE(writer.WriteHead(head, true).ok());
  EXPECT_FALSE(writer.Write("data").ok());
  EXPECT_FALSE(writer.Finish().ok());
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writes, 1);  // one failed write; the rest short-circuit
}

TEST(ChunkedClientTest, DecodesChunkedResponseWithTrailers) {
  Pair pair;
  ASSERT_TRUE(pair.feeder
                  .WriteAll("HTTP/1.1 200 OK\r\n"
                            "Content-Type: application/json\r\n"
                            "Transfer-Encoding: chunked\r\n"
                            "\r\n"
                            "6\r\nhello \r\n"
                            "b;ext=1\r\nchunked wor\r\n"
                            "2\r\nld\r\n"
                            "0\r\n"
                            "X-Trailer: yes\r\n"
                            "Content-Type: text/evil\r\n"
                            "\r\n")
                  .ok());
  BufferedReader reader(&pair.reader_socket);
  auto parsed = ReadHttpResponse(&reader);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->body, "hello chunked world");
  EXPECT_EQ(parsed->headers.at("x-trailer"), "yes");
  // Trailers must not clobber headers from the real header section.
  EXPECT_EQ(parsed->headers.at("content-type"), "application/json");
}

TEST(ChunkedClientTest, KeepAliveSurvivesChunkedMessageBoundary) {
  // Two responses back-to-back on one connection: a chunked one, then a
  // Content-Length one. The decoder must stop exactly at the terminal
  // chunk's blank line, leaving the second message intact.
  Pair pair;
  std::string wire;
  ChunkedWriter writer([&wire](std::string_view data) {
    wire.append(data);
    return Status::OK();
  });
  HttpResponse head;
  ASSERT_TRUE(writer.WriteHead(head, /*keep_alive=*/true).ok());
  ASSERT_TRUE(writer.Write("first streamed body").ok());
  ASSERT_TRUE(writer.Finish().ok());
  wire += SerializeResponse(HttpResponse(200, "second body"),
                            /*keep_alive=*/true);
  ASSERT_TRUE(pair.feeder.WriteAll(wire).ok());

  BufferedReader reader(&pair.reader_socket);
  auto first = ReadHttpResponse(&reader);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->body, "first streamed body");
  auto second = ReadHttpResponse(&reader);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->body, "second body");
}

TEST(ChunkedClientTest, RejectsMalformedChunkSizes) {
  Pair pair;
  ASSERT_TRUE(pair.feeder
                  .WriteAll("HTTP/1.1 200 OK\r\n"
                            "Transfer-Encoding: chunked\r\n"
                            "\r\n"
                            "zz\r\nbody\r\n0\r\n\r\n")
                  .ok());
  BufferedReader reader(&pair.reader_socket);
  EXPECT_FALSE(ReadHttpResponse(&reader).ok());
}

TEST(ChunkedClientTest, RejectsOverflowingAndOversizedChunkSizes) {
  // 2^64 wraps size_t to 0 — which must NOT read as the terminal chunk.
  for (const char* size_line : {"10000000000000000", "ffffffffffffffff",
                                "fffffff0"}) {
    Pair pair;
    ASSERT_TRUE(pair.feeder
                    .WriteAll(std::string("HTTP/1.1 200 OK\r\n"
                                          "Transfer-Encoding: chunked\r\n"
                                          "\r\n") +
                              size_line + "\r\npayload\r\n0\r\n\r\n")
                    .ok());
    BufferedReader reader(&pair.reader_socket);
    auto resp = ReadHttpResponse(&reader);
    ASSERT_FALSE(resp.ok()) << size_line;
    EXPECT_NE(resp.status().message().find("chunk size too large"),
              std::string::npos)
        << size_line;
  }
}

TEST(BufferedReaderTest, SplitsLinesAcrossReads) {
  Pair pair;
  ASSERT_TRUE(pair.feeder.WriteAll("line one\r\nline two\nline three").ok());
  pair.feeder.Close();
  BufferedReader reader(&pair.reader_socket);
  EXPECT_EQ(reader.ReadLine().value(), "line one");
  EXPECT_EQ(reader.ReadLine().value(), "line two");
  // A line that EOF cuts off is not a line.
  auto tail = reader.ReadLine();
  ASSERT_FALSE(tail.ok());
  EXPECT_EQ(tail.status().code(), StatusCode::kIoError);
  EXPECT_EQ(tail.status().message(), "connection closed");
  EXPECT_FALSE(reader.ReadLine().ok());  // EOF
}

// The line bound is exact however the bytes arrive: a 65,536-byte line is
// read and a 65,537-byte line is refused, fed in one write and one byte
// per write.
TEST(BufferedReaderTest, LineBoundIsExactWhateverTheArrival) {
  for (size_t len : {BufferedReader::kMaxLineBytes,
                     BufferedReader::kMaxLineBytes + 1}) {
    const std::string text(len, 'x');
    const std::string wire = text + "\nnext\n";
    for (size_t chunk : {wire.size(), size_t{1}}) {
      OverSocketPair(wire, chunk, [&](BufferedReader* reader) {
        auto line = reader->ReadLine();
        if (len == BufferedReader::kMaxLineBytes) {
          ASSERT_TRUE(line.ok()) << line.status() << ", chunk " << chunk;
          EXPECT_EQ(*line, text);
          EXPECT_EQ(reader->ReadLine().value(), "next");
        } else {
          ASSERT_FALSE(line.ok()) << "chunk " << chunk;
          EXPECT_EQ(line.status().code(), StatusCode::kIoError);
          EXPECT_EQ(line.status().message(), "line exceeds 65536 bytes");
        }
      });
    }
  }
}

// The request arrives one byte per write, split at every boundary: the
// request line, each header line, each CRLF and the body.
TEST(ReadHttpRequestTest, ParsesOneBytePerWrite) {
  const std::string wire =
      "POST /query?stream=1 HTTP/1.1\r\n"
      "Host: t\r\n"
      "Content-Length: 14\r\n"
      "\r\n"
      "SLICE sa=sex=F";
  OverSocketPair(wire, 1, [](BufferedReader* reader) {
    auto line = reader->ReadLine();
    ASSERT_TRUE(line.ok()) << line.status();
    auto request = ReadHttpRequest(reader, *line);
    ASSERT_TRUE(request.ok()) << request.status();
    EXPECT_EQ(request->method, "POST");
    EXPECT_EQ(request->path, "/query");
    EXPECT_EQ(request->Param("stream"), "1");
    EXPECT_EQ(request->Header("host"), "t");
    EXPECT_EQ(request->body, "SLICE sa=sex=F");
    EXPECT_TRUE(request->keep_alive);
  });
}

/// Reads one response from `wire`, written whole and followed by EOF.
Result<HttpClientResponse> ReadResponse(const std::string& wire) {
  Result<HttpClientResponse> out = Status::Internal("not read");
  OverSocketPair(wire, wire.size(), [&out](BufferedReader* reader) {
    out = ReadHttpResponse(reader);
  });
  return out;
}

TEST(HttpClientTest, ResponseHeadOver128LinesIsAParseError) {
  // Stopping after 128 lines would read the rest of the head as body.
  auto resp = ReadResponse("HTTP/1.1 200 OK\r\n" + HeaderLines(129) +
                           "Content-Length: 2\r\n\r\nok");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kParseError);
  EXPECT_EQ(resp.status().message(), "more than 128 headers");
}

TEST(HttpClientTest, BodyFramedByCloseComesBackByteForByte) {
  const std::string body("a\r\nb\n\0c\r", 8);
  auto resp = ReadResponse("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" +
                           body);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->body, body);
}

TEST(HttpClientTest, ResponseBodiesAreCapped) {
  auto resp = ReadResponse(
      "HTTP/1.1 200 OK\r\nContent-Length: 1073741825\r\n\r\nshort");
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kParseError);
  EXPECT_EQ(resp.status().message(),
            "response body exceeds 1073741824 bytes");
}

// Request heads, response heads and chunk trailers are read by one
// header-section reader, so each rule holds in all three places.
TEST(HttpHeaderSectionTest, SameRulesForRequestsResponsesAndTrailers) {
  struct Section {
    std::string lines;
    StatusCode code;
    std::string message;  ///< the status message, or the value of x-a
  };
  const std::vector<Section> sections = {
      {"no-colon-here\r\n", StatusCode::kParseError,
       "malformed header: no-colon-here"},
      {HeaderLines(129), StatusCode::kParseError, "more than 128 headers"},
      {HeaderLines(128), StatusCode::kOk, ""},
      {"X-A: 1\r\nx-a:  2 \r\n", StatusCode::kOk, "2"},
  };
  for (const Section& section : sections) {
    ReadOutcome request =
        ReadRequests("GET / HTTP/1.1\r\n" + section.lines + "\r\n", 1 << 20);
    auto response = ReadResponse("HTTP/1.1 200 OK\r\n" + section.lines +
                                 "\r\n");
    auto trailer = ReadResponse(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        "2\r\nok\r\n0\r\n" + section.lines + "\r\n");
    EXPECT_EQ(request.code, section.code) << section.lines;
    EXPECT_EQ(response.status().code(), section.code) << section.lines;
    EXPECT_EQ(trailer.status().code(), section.code) << section.lines;
    if (section.code != StatusCode::kOk) {
      EXPECT_EQ(request.text, section.message);
      EXPECT_EQ(response.status().message(), section.message);
      EXPECT_EQ(trailer.status().message(), section.message);
    } else if (!section.message.empty()) {
      EXPECT_EQ(response->headers.at("x-a"), section.message);
      EXPECT_EQ(trailer->headers.at("x-a"), section.message);
    }
  }
  // Content-Length frames heads only; a bad one fails both kinds.
  EXPECT_EQ(ReadRequests("POST / HTTP/1.1\r\nContent-Length: 1x\r\n\r\n",
                         1 << 20)
                .text,
            "bad Content-Length: 1x");
  EXPECT_EQ(
      ReadResponse("HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\n")
          .status()
          .message(),
      "bad Content-Length: 1x");
}

/// Replaces one size token of `wire` (a Content-Length value or a chunk
/// size line) with a hostile one; false when the wire has none.
bool ReplaceSize(std::string* wire, Rng* rng) {
  std::vector<std::pair<size_t, size_t>> tokens;  // (begin, length)
  for (size_t begin = 0; begin < wire->size();) {
    size_t end = wire->find('\n', begin);
    if (end == std::string::npos) end = wire->size();
    std::string_view line(wire->data() + begin, end - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    constexpr std::string_view kLength = "Content-Length: ";
    if (line.substr(0, kLength.size()) == kLength) {
      tokens.emplace_back(begin + kLength.size(),
                          line.size() - kLength.size());
    } else if (!line.empty() &&
               line.find_first_not_of("0123456789abcdefABCDEF") ==
                   std::string_view::npos) {
      tokens.emplace_back(begin, line.size());
    }
    begin = end + 1;
  }
  if (tokens.empty()) return false;
  static const char* kSizes[] = {"fffffff",  "10000001", "ffffffffffffffffff",
                                 "zz",       "-1",       "99999999999",
                                 "40000001", "",         "0"};
  auto [at, length] = tokens[rng->NextBounded(tokens.size())];
  wire->replace(at, length, kSizes[rng->NextBounded(std::size(kSizes))]);
  return true;
}

/// One to three seeded mutations of `wire`.
std::string Mutate(std::string wire, Rng* rng) {
  const uint64_t count = 1 + rng->NextBounded(3);
  for (uint64_t i = 0; i < count; ++i) {
    switch (rng->NextBounded(6)) {
      case 0:  // flip a byte
        if (!wire.empty()) {
          wire[rng->NextBounded(wire.size())] ^=
              static_cast<char>(1 + rng->NextBounded(255));
        }
        break;
      case 1:  // truncate
        wire.resize(rng->NextBounded(wire.size() + 1));
        break;
      case 2:    // drop a CR or LF
      case 3: {  // double one
        std::vector<size_t> breaks;
        for (size_t at = 0; at < wire.size(); ++at) {
          if (wire[at] == '\r' || wire[at] == '\n') breaks.push_back(at);
        }
        if (breaks.empty()) break;
        size_t at = breaks[rng->NextBounded(breaks.size())];
        if (rng->NextBool(0.5)) {
          wire.erase(at, 1);
        } else {
          wire.insert(at, 1, wire[at]);
        }
        break;
      }
      case 4:
        ReplaceSize(&wire, rng);
        break;
      case 5: {  // 129 or more header lines after the first line
        size_t first = wire.find('\n');
        size_t at = first == std::string::npos ? wire.size() : first + 1;
        wire.insert(at, HeaderLines(129 + rng->NextBounded(64)));
        break;
      }
    }
  }
  return wire;
}

// Hostile input: the request, response-head, chunked-body and trailer
// wires of the tests above, mutated from a seed, must always come back as
// a status (an error with a reader's code, or messages whose bodies stay
// within the caps). A failure names its seed; Mutate(Rng(seed)) replays it.
TEST(HttpFuzzTest, MutatedMessagesAlwaysEndInAStatus) {
  const std::string post_body = "TOPK 5 BY dissimilarity\nSLICE sa=sex=F";
  const std::vector<std::string> requests = {
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nX-Custom: value\r\n\r\n",
      "POST /query?format=json HTTP/1.1\r\nContent-Length: " +
          std::to_string(post_body.size()) + "\r\n\r\n" + post_body,
      "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      "POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nTOPK"
      "GET /cubes HTTP/1.1\r\n\r\n",
  };
  HttpResponse busy(503, "{\"error\":\"full\"}\n");
  busy.SetHeader("Retry-After", "1");
  const std::vector<std::string> responses = {
      SerializeResponse(busy, /*keep_alive=*/true),
      "HTTP/1.1 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "6\r\nhello \r\n"
      "b;ext=1\r\nchunked wor\r\n"
      "2\r\nld\r\n"
      "0\r\n"
      "X-Trailer: yes\r\n"
      "\r\n" +
          SerializeResponse(HttpResponse(200, "second body"), true),
      "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\na\r\nb",
  };
  constexpr size_t kMaxRequestBody = 4 * 1024 * 1024;
  constexpr size_t kMaxResponseBody = 1024 * 1024 * 1024;
  auto expected_error = [](StatusCode code) {
    return code == StatusCode::kParseError || code == StatusCode::kIoError ||
           code == StatusCode::kInvalidArgument ||
           code == StatusCode::kUnimplemented;
  };
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    const bool request = rng.NextBool(0.5);
    const std::vector<std::string>& corpus = request ? requests : responses;
    const std::string wire =
        Mutate(corpus[rng.NextBounded(corpus.size())], &rng);
    // A quarter of the inputs arrive in small pieces.
    const size_t chunk =
        rng.NextBool(0.25) ? 1 + rng.NextBounded(16) : wire.size();
    OverSocketPair(wire, chunk, [&](BufferedReader* reader) {
      for (;;) {
        if (request) {
          auto line = reader->ReadLine();
          if (!line.ok()) return;
          auto parsed = ReadHttpRequest(reader, *line);
          if (!parsed.ok()) {
            EXPECT_TRUE(expected_error(parsed.status().code()))
                << parsed.status();
            return;
          }
          EXPECT_LE(parsed->body.size(), kMaxRequestBody);
        } else {
          auto parsed = ReadHttpResponse(reader);
          if (!parsed.ok()) {
            EXPECT_TRUE(expected_error(parsed.status().code()))
                << parsed.status();
            return;
          }
          EXPECT_LE(parsed->body.size(), kMaxResponseBody);
        }
      }
    });
  }
}

TEST(ListenSocketTest, LoopbackConnectAndEcho) {
  auto listener = ListenSocket::Bind(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok()) << listener.status();
  ASSERT_GT(listener->port(), 0);

  auto client = Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto served = listener->Accept();
  ASSERT_TRUE(served.ok()) << served.status();

  ASSERT_TRUE(client->WriteAll("ping\n").ok());
  BufferedReader reader(&*served);
  EXPECT_EQ(reader.ReadLine().value(), "ping");
}

}  // namespace
}  // namespace net
}  // namespace scube
