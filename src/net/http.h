// Minimal HTTP/1.1 for the scubed front-end and its clients, over a
// buffered blocking socket reader. Each part of a message is read one way:
// a request line or status line, then one header-section reader for
// request heads, response heads and chunk trailers alike, then one body
// reader (Content-Length, chunked, or bytes to EOF). There is no
// incremental parser: every read blocks on the BufferedReader. Writing
// side: SerializeResponse/SerializeResponseHead and ChunkedWriter for
// streamed answers, SerializeRequest for the clients, which connect with
// ClientOptions: two timeouts, and no retry policy (the shard client in
// cluster/shard_client.h owns the router's one rule). Deliberately small:
// no chunked request bodies (411 when a request body has no
// Content-Length), no TLS, no multipart — scubed speaks plain HTTP to load
// balancers, curl and the bench/test clients in this repo.

#ifndef SCUBE_NET_HTTP_H_
#define SCUBE_NET_HTTP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "net/socket.h"

namespace scube {
namespace net {

/// \brief Buffered line/byte reader over a blocking socket.
class BufferedReader {
 public:
  /// The default line bound, for request lines and header lines alike.
  static constexpr size_t kMaxLineBytes = 64 * 1024;

  explicit BufferedReader(Socket* socket) : socket_(socket) {}

  /// Reads one line up to and including '\n', stripping "\r\n" / "\n".
  /// The bound is exact however the bytes arrive: the bytes before the
  /// '\n', a CR included, may not exceed `max_len` (IoError "line exceeds
  /// N bytes"). A line that EOF cuts off, or EOF before any byte, is
  /// IoError "connection closed"; so is a socket error or timeout.
  Result<std::string> ReadLine(size_t max_len = kMaxLineBytes);

  /// Reads exactly `n` bytes, appending them to `out`. IoError naming the
  /// bytes received when EOF comes first.
  Status ReadExact(size_t n, std::string* out);

  /// Appends every byte up to EOF to `out`, stopping early once more than
  /// `limit` bytes were appended (the caller checks which happened).
  Status ReadToEof(size_t limit, std::string* out);

  /// Caps the total wall time of all subsequent reads: once `deadline`
  /// passes, reads fail with DeadlineExceeded even if the peer keeps
  /// trickling bytes. This is the slow-loris bound — a per-read
  /// SetRecvTimeout alone is defeated by one byte per timeout window.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }
  void clear_deadline() { deadline_.reset(); }

 private:
  Status Fill();  ///< one recv into the buffer

  Socket* socket_;
  std::string buf_;
  size_t pos_ = 0;
  bool eof_ = false;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

/// \brief One parsed HTTP/1.1 request.
struct HttpRequest {
  std::string method;  ///< upper-case, e.g. "GET"
  std::string target;  ///< raw request target, e.g. "/query?format=csv"
  std::string path;    ///< decoded path component, e.g. "/query"
  std::map<std::string, std::string> params;   ///< decoded query parameters
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
  bool keep_alive = true;  ///< HTTP/1.1 default unless "Connection: close"

  /// Wall-clock bounds of reading this request off the socket (first
  /// byte to parse complete), stamped by the connection front-end so
  /// handlers can record a retroactive "conn.read" trace span. Both at
  /// the epoch when the front-end does not track read time.
  std::chrono::steady_clock::time_point read_start{};
  std::chrono::steady_clock::time_point read_end{};

  /// Case-insensitive header lookup; "" when absent.
  const std::string& Header(const std::string& lower_name) const;

  /// Query parameter lookup with default.
  std::string Param(const std::string& name,
                    const std::string& fallback = "") const;
};

/// \brief One HTTP response under construction.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  std::string content_type = "application/json";

  HttpResponse() = default;
  HttpResponse(int status_code, std::string body_text)
      : status(status_code), body(std::move(body_text)) {}

  void SetHeader(const std::string& name, const std::string& value) {
    headers.emplace_back(name, value);
  }
};

/// The standard reason phrase for a status code ("OK", "Not Found", ...).
const char* StatusReason(int status);

/// Reads the request whose request line was already consumed: the header
/// section, then a Content-Length body of at most `max_body` bytes
/// (InvalidArgument beyond). Stops at the end of the message, so a
/// pipelined request stays in `reader`. A malformed head is a ParseError
/// naming what was wrong; a head or body cut off by EOF is an IoError.
Result<HttpRequest> ReadHttpRequest(BufferedReader* reader,
                                    const std::string& request_line,
                                    size_t max_body = 4 * 1024 * 1024);

/// Serialises a response with Content-Length and Connection headers.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// Serialises only the status line + headers (no body bytes). With
/// `chunked` the framing header is `Transfer-Encoding: chunked` and
/// Content-Length is never emitted — mixing the two desyncs keep-alive
/// connections; without it, Content-Length is taken from response.body.
std::string SerializeResponseHead(const HttpResponse& response,
                                  bool keep_alive, bool chunked);

/// \brief Incremental HTTP/1.1 chunked-transfer response writer: the wire
/// side of a streamed answer. Bytes go out through a raw write callback
/// (the socket, or a string in tests); payload is coalesced into chunks of
/// up to `flush_bytes`, so the response buffer stays O(flush_bytes) no
/// matter how large the body is — that bound is the whole point of the
/// streaming read path.
///
/// Usage: WriteHead once, Write any number of times, Finish once. After
/// Finish the connection is exactly at a message boundary and keep-alive
/// continues normally.
class ChunkedWriter {
 public:
  /// Raw byte sink. A non-OK return aborts the stream: subsequent calls
  /// become no-ops and Finish reports the failure.
  using WriteFn = std::function<Status(std::string_view)>;

  static constexpr size_t kDefaultFlushBytes = 16 * 1024;

  explicit ChunkedWriter(WriteFn write,
                         size_t flush_bytes = kDefaultFlushBytes);

  /// Attaches a trace (null = off): WriteHead records a "wire.head" span
  /// and every non-empty Flush a "wire.flush" span, so a trace shows how
  /// much of a streamed request went to socket writes.
  void set_trace(trace::TraceContext* trace) { trace_ = trace; }

  /// Writes the status line + headers with Transfer-Encoding: chunked.
  /// The head is flushed immediately so the client's first byte does not
  /// wait for the first body chunk (time-to-first-byte).
  Status WriteHead(const HttpResponse& head, bool keep_alive);

  /// Buffers payload, emitting a chunk whenever `flush_bytes` accumulate.
  Status Write(std::string_view data);

  /// Emits any buffered payload as a chunk now.
  Status Flush();

  /// Flushes, then writes the terminal 0-length chunk. Idempotent.
  Status Finish();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Largest number of payload bytes ever buffered — the peak response
  /// buffer, reported by /metrics to demonstrate O(1) buffering.
  size_t peak_buffer_bytes() const { return peak_buffer_; }

  /// Wire bytes written so far (head + chunk framing + payload).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Status Emit(std::string_view raw);  ///< raw wire write, latching failure

  WriteFn write_;
  size_t flush_bytes_;
  trace::TraceContext* trace_ = nullptr;
  std::string buffer_;
  size_t peak_buffer_ = 0;
  uint64_t bytes_written_ = 0;
  bool head_written_ = false;
  bool finished_ = false;
  Status status_;
};

/// Splits a request target into decoded path + query parameters.
void ParseTarget(std::string_view target, std::string* path,
                 std::map<std::string, std::string>* params);

/// Percent-decoding ('+' becomes a space, bad escapes pass through).
std::string UrlDecode(std::string_view s);

/// \brief Everything before a response body: status, headers, framing.
struct HttpResponseHead {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  bool chunked = false;          ///< Transfer-Encoding: chunked
  std::optional<size_t> length;  ///< Content-Length, when given
};

/// Reads the status line and header section, leaving the reader at the
/// first body byte. The streaming scatter client reads the head, then
/// pulls body bytes incrementally through ChunkedBodyReader.
Result<HttpResponseHead> ReadHttpResponseHead(BufferedReader* reader);

/// Reads the body `head` frames onto `body`: a chunked body decoded, with
/// its trailers added to head->headers (never replacing a header the head
/// set); else Content-Length bytes; else every byte to EOF. A chunk over
/// 256 MiB or a body over 1 GiB is a ParseError.
Status ReadHttpBody(BufferedReader* reader, HttpResponseHead* head,
                    std::string* body);

/// \brief Parsed HTTP response (the client side, for benches and tests).
struct HttpClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
};

/// Reads one full response from `reader`: ReadHttpResponseHead, then
/// ReadHttpBody.
Result<HttpClientResponse> ReadHttpResponse(BufferedReader* reader);

/// The bytes of a client request: `method target` with Host, Content-Type,
/// Content-Length and keep-alive headers, then `body`.
std::string SerializeRequest(const std::string& method,
                             const std::string& target,
                             const std::string& body,
                             const std::string& content_type);

/// One-shot client helper: sends SerializeRequest's bytes over an open
/// connection and reads the response, keeping the connection reusable.
Result<HttpClientResponse> RoundTrip(Socket* socket, BufferedReader* reader,
                                     const std::string& method,
                                     const std::string& target,
                                     const std::string& body = "",
                                     const std::string& content_type =
                                         "text/plain");

/// \brief Client-side timeouts (shard client pool). Connecting is bounded
/// by 5 s. Retrying is the caller's choice; cluster/shard_client.h has the
/// router's one rule.
struct ClientOptions {
  /// Receive timeout applied to the connection (SetRecvTimeout); bounds
  /// every read of the response. 0 = unbounded.
  double read_timeout_s = 10.0;
};

/// \brief A pooled keep-alive client connection: the socket plus its
/// buffered reader (they must live and die together — the reader may hold
/// read-ahead bytes and points at the socket, so the struct must stay at
/// a fixed address while connected; pools hold it by unique_ptr). Invalid
/// when not yet connected or torn down after a transport error.
struct ClientConnection {
  Socket socket;
  std::unique_ptr<BufferedReader> reader;

  ClientConnection() = default;
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  bool valid() const { return socket.valid() && reader != nullptr; }
  void Reset() {
    reader.reset();
    socket.Close();
  }
};

/// Connects `conn` in place per `options` (connect timeout, read timeout,
/// TCP_NODELAY) and wires up its reader. Any previous connection is torn
/// down first.
Status OpenClientConnection(const std::string& host, uint16_t port,
                            const ClientOptions& options,
                            ClientConnection* conn);

/// \brief Incremental chunked-body decoder: one chunk per ReadSome call,
/// so a client can consume an arbitrarily long streamed response in O(1)
/// memory (the batch ReadHttpResponse materialises the whole body).
class ChunkedBodyReader {
 public:
  explicit ChunkedBodyReader(BufferedReader* reader) : reader_(reader) {}

  /// Appends the next chunk's payload to `out`. Returns false once the
  /// terminal chunk (and trailer section) has been consumed — the
  /// connection then sits exactly at the message boundary, reusable for
  /// keep-alive. Trailer headers are read into trailers().
  Result<bool> ReadSome(std::string* out);

  const std::map<std::string, std::string>& trailers() const {
    return trailers_;
  }

 private:
  BufferedReader* reader_;
  std::map<std::string, std::string> trailers_;
  bool done_ = false;
};

}  // namespace net
}  // namespace scube

#endif  // SCUBE_NET_HTTP_H_
