#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "common/string_util.h"

namespace scube {
namespace net {

namespace {

constexpr size_t kReadChunk = 16 * 1024;
constexpr size_t kMaxHeaderLines = 128;

}  // namespace

Status BufferedReader::Fill() {
  if (eof_) return Status::OK();
  // The total-time cap, checked before every receive: a peer trickling
  // one byte per receive-timeout window keeps each recv "successful" but
  // cannot push the wall clock back.
  if (deadline_ && std::chrono::steady_clock::now() >= *deadline_) {
    return Status::DeadlineExceeded("request read deadline exceeded");
  }
  // Compact the consumed prefix before growing the buffer.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  size_t old = buf_.size();
  buf_.resize(old + kReadChunk);
  auto got = socket_->Read(buf_.data() + old, kReadChunk);
  if (!got.ok()) {
    buf_.resize(old);
    return got.status();
  }
  buf_.resize(old + *got);
  if (*got == 0) eof_ = true;
  return Status::OK();
}

Result<std::string> BufferedReader::ReadLine(size_t max_len) {
  // Bytes of the line already searched for '\n'; relative to pos_, which
  // Fill may move, so a line arriving a byte at a time is scanned once.
  size_t scanned = 0;
  while (true) {
    size_t nl = buf_.find('\n', pos_ + scanned);
    size_t len = (nl == std::string::npos ? buf_.size() : nl) - pos_;
    scanned = len;
    // Exact whatever the arrival pattern: a line over the bound fails
    // whether its '\n' came in the same read or never came.
    if (len > max_len) {
      return Status::IoError("line exceeds " + std::to_string(max_len) +
                             " bytes");
    }
    if (nl != std::string::npos) {
      std::string line = buf_.substr(pos_, len);
      pos_ = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (eof_) return Status::IoError("connection closed");
    SCUBE_RETURN_IF_ERROR(Fill());
  }
}

Status BufferedReader::ReadExact(size_t n, std::string* out) {
  while (buf_.size() - pos_ < n) {
    if (eof_) {
      return Status::IoError("connection closed mid-body (" +
                             std::to_string(buf_.size() - pos_) + " of " +
                             std::to_string(n) + " bytes)");
    }
    SCUBE_RETURN_IF_ERROR(Fill());
  }
  out->append(buf_, pos_, n);
  pos_ += n;
  return Status::OK();
}

Status BufferedReader::ReadToEof(size_t limit, std::string* out) {
  const size_t start = out->size();
  while (true) {
    out->append(buf_, pos_);
    pos_ = buf_.size();
    if (eof_ || out->size() - start > limit) return Status::OK();
    SCUBE_RETURN_IF_ERROR(Fill());
  }
}

const std::string& HttpRequest::Header(const std::string& lower_name) const {
  static const std::string kEmpty;
  auto it = headers.find(lower_name);
  return it == headers.end() ? kEmpty : it->second;
}

std::string HttpRequest::Param(const std::string& name,
                               const std::string& fallback) const {
  auto it = params.find(name);
  return it == params.end() ? fallback : it->second;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        return (std::tolower(static_cast<unsigned char>(h)) - 'a') + 10;
      };
      out += static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

void ParseTarget(std::string_view target, std::string* path,
                 std::map<std::string, std::string>* params) {
  size_t q = target.find('?');
  *path = UrlDecode(target.substr(0, q));
  params->clear();
  if (q == std::string_view::npos) return;
  std::string_view rest = target.substr(q + 1);
  while (!rest.empty()) {
    size_t amp = rest.find('&');
    std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      (*params)[UrlDecode(pair)] = "";
    } else {
      (*params)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
  }
}

// --- Reading messages --------------------------------------------------

namespace {

/// Reads one header section up to and including its blank line: a request
/// head, a response head or a chunk trailer, all under the same rules.
/// Names are lower-cased and values trimmed; a repeated name keeps its
/// last value.
Status ReadHeaderSection(BufferedReader* reader,
                         std::map<std::string, std::string>* headers) {
  for (size_t count = 0;; ++count) {
    auto line = reader->ReadLine();
    if (!line.ok()) return line.status();
    if (line->empty()) return Status::OK();
    if (count == kMaxHeaderLines) {
      // Failing (rather than stopping short) keeps the connection from
      // desyncing: the rest of the section would otherwise read as body.
      return Status::ParseError("more than " +
                                std::to_string(kMaxHeaderLines) + " headers");
    }
    size_t colon = line->find(':');
    if (colon == std::string::npos) {
      return Status::ParseError("malformed header: " + *line);
    }
    std::string_view text(*line);
    (*headers)[ToLower(Trim(text.substr(0, colon)))] =
        std::string(Trim(text.substr(colon + 1)));
  }
}

/// The Content-Length a head declares; nullopt when absent or empty.
Result<std::optional<size_t>> ContentLength(
    const std::map<std::string, std::string>& headers) {
  auto it = headers.find("content-length");
  if (it == headers.end() || it->second.empty()) {
    return std::optional<size_t>();
  }
  auto n = ParseInt64(it->second);
  if (!n.ok() || *n < 0) {
    return Status::ParseError("bad Content-Length: " + it->second);
  }
  return std::optional<size_t>(static_cast<size_t>(*n));
}

}  // namespace

Result<HttpRequest> ReadHttpRequest(BufferedReader* reader,
                                    const std::string& request_line,
                                    size_t max_body) {
  // A second CR before the LF ("\r\r\n"; ReadLine strips one) is dropped
  // too, so the version reads as sent.
  std::string line = request_line;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    return Status::ParseError("malformed request line: " + line);
  }
  HttpRequest request;
  request.method = line.substr(0, sp1);
  std::transform(request.method.begin(), request.method.end(),
                 request.method.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) {
    return Status::ParseError("unsupported protocol: " + version);
  }
  // HTTP/1.0 defaults to close, 1.1 to keep-alive.
  request.keep_alive = version != "HTTP/1.0";
  ParseTarget(request.target, &request.path, &request.params);

  SCUBE_RETURN_IF_ERROR(ReadHeaderSection(reader, &request.headers));
  const std::string connection = ToLower(request.Header("connection"));
  if (connection.find("close") != std::string::npos) {
    request.keep_alive = false;
  }
  if (connection.find("keep-alive") != std::string::npos) {
    request.keep_alive = true;
  }
  auto length = ContentLength(request.headers);
  if (!length.ok()) return length.status();
  if (!length->has_value()) {
    if (!request.Header("transfer-encoding").empty()) {
      return Status::Unimplemented("chunked transfer encoding not supported");
    }
    return request;
  }
  if (**length > max_body) {
    return Status::InvalidArgument(
        "request body of " + request.Header("content-length") +
        " bytes exceeds the limit of " + std::to_string(max_body));
  }
  SCUBE_RETURN_IF_ERROR(reader->ReadExact(**length, &request.body));
  return request;
}

std::string SerializeResponseHead(const HttpResponse& response,
                                  bool keep_alive, bool chunked) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  if (chunked) {
    // Never alongside Content-Length: a streamed response's size is
    // unknown when the head leaves, and emitting both desyncs keep-alive.
    out += "Transfer-Encoding: chunked\r\n";
  } else {
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out =
      SerializeResponseHead(response, keep_alive, /*chunked=*/false);
  out += response.body;
  return out;
}

// --- ChunkedWriter ----------------------------------------------------------

ChunkedWriter::ChunkedWriter(WriteFn write, size_t flush_bytes)
    : write_(std::move(write)),
      flush_bytes_(flush_bytes == 0 ? kDefaultFlushBytes : flush_bytes) {
  buffer_.reserve(flush_bytes_);
}

Status ChunkedWriter::Emit(std::string_view raw) {
  if (!status_.ok()) return status_;
  status_ = write_(raw);
  if (status_.ok()) bytes_written_ += raw.size();
  return status_;
}

Status ChunkedWriter::WriteHead(const HttpResponse& head, bool keep_alive) {
  if (head_written_) return Status::FailedPrecondition("head already written");
  head_written_ = true;
  trace::Span span(trace_, "wire.head");
  return Emit(SerializeResponseHead(head, keep_alive, /*chunked=*/true));
}

Status ChunkedWriter::Write(std::string_view data) {
  if (!status_.ok()) return status_;
  if (finished_) return Status::FailedPrecondition("stream finished");
  buffer_.append(data);
  peak_buffer_ = std::max(peak_buffer_, buffer_.size());
  if (buffer_.size() >= flush_bytes_) return Flush();
  return status_;
}

Status ChunkedWriter::Flush() {
  if (!status_.ok()) return status_;
  if (buffer_.empty()) return status_;
  trace::Span span(trace_, "wire.flush");
  char size_line[32];
  int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                        buffer_.size());
  std::string frame;
  frame.reserve(static_cast<size_t>(n) + buffer_.size() + 2);
  frame.append(size_line, static_cast<size_t>(n));
  frame.append(buffer_);
  frame.append("\r\n");
  buffer_.clear();
  return Emit(frame);
}

Status ChunkedWriter::Finish() {
  if (finished_) return status_;
  if (!head_written_) {
    return Status::FailedPrecondition("Finish before WriteHead");
  }
  SCUBE_RETURN_IF_ERROR(Flush());
  finished_ = true;
  return Emit("0\r\n\r\n");
}

namespace {

/// Chunks beyond this are rejected rather than allocated: no peer of ours
/// sends chunks anywhere near it (the server flushes at ~16 KiB), and it
/// keeps a hostile size line from driving a huge allocation.
constexpr size_t kMaxChunkBytes = 256 * 1024 * 1024;

/// Total body bound, whatever the framing: an endless stream of small
/// chunks, or an endless body up to EOF, must not grow the client's
/// memory without limit either.
constexpr size_t kMaxBodyBytes = 1024 * 1024 * 1024;

Status BodyTooLarge() {
  return Status::ParseError("response body exceeds " +
                            std::to_string(kMaxBodyBytes) + " bytes");
}

}  // namespace

Result<bool> ChunkedBodyReader::ReadSome(std::string* out) {
  if (done_) return Result<bool>(false);
  auto size_line = reader_->ReadLine();
  if (!size_line.ok()) return size_line.status();
  // Chunk extensions ("1a;name=value") are tolerated and ignored.
  std::string_view digits(*size_line);
  size_t semi = digits.find(';');
  if (semi != std::string_view::npos) digits = digits.substr(0, semi);
  digits = Trim(digits);
  if (digits.empty()) {
    return Status::ParseError("empty chunk size line");
  }
  auto parsed = ParseHexU64(digits);
  if (!parsed.ok()) {
    // A value overflowing uint64 must not wrap (wrapping to 0 would read
    // as the terminal chunk and misframe the rest of the stream).
    return digits.size() > 16
               ? Status::ParseError("chunk size too large: " + *size_line)
               : Status::ParseError("bad chunk size: " + *size_line);
  }
  if (*parsed > kMaxChunkBytes) {
    return Status::ParseError("chunk size too large: " + *size_line);
  }
  size_t size = static_cast<size_t>(*parsed);
  if (size == 0) {
    SCUBE_RETURN_IF_ERROR(ReadHeaderSection(reader_, &trailers_));
    done_ = true;
    return Result<bool>(false);
  }
  SCUBE_RETURN_IF_ERROR(reader_->ReadExact(size, out));
  // The CRLF that terminates the chunk payload.
  auto crlf = reader_->ReadLine();
  if (!crlf.ok()) return crlf.status();
  if (!crlf->empty()) {
    return Status::ParseError("chunk payload not followed by CRLF");
  }
  return Result<bool>(true);
}

Result<HttpResponseHead> ReadHttpResponseHead(BufferedReader* reader) {
  auto status_line = reader->ReadLine();
  if (!status_line.ok()) return status_line.status();
  // "HTTP/1.1 200 OK"
  size_t sp1 = status_line->find(' ');
  if (sp1 == std::string::npos || status_line->rfind("HTTP/", 0) != 0) {
    return Status::ParseError("malformed status line: " + *status_line);
  }
  auto code = ParseInt64(std::string_view(*status_line).substr(sp1 + 1, 3));
  if (!code.ok()) {
    return Status::ParseError("malformed status line: " + *status_line);
  }
  HttpResponseHead head;
  head.status = static_cast<int>(*code);
  SCUBE_RETURN_IF_ERROR(ReadHeaderSection(reader, &head.headers));
  auto length = ContentLength(head.headers);
  if (!length.ok()) return length.status();
  head.length = *length;
  auto encoding = head.headers.find("transfer-encoding");
  head.chunked = encoding != head.headers.end() &&
                 ToLower(encoding->second).find("chunked") !=
                     std::string::npos;
  return head;
}

Status ReadHttpBody(BufferedReader* reader, HttpResponseHead* head,
                    std::string* body) {
  if (head->chunked) {
    ChunkedBodyReader chunks(reader);
    while (true) {
      auto more = chunks.ReadSome(body);
      if (!more.ok()) return more.status();
      if (body->size() > kMaxBodyBytes) return BodyTooLarge();
      if (!*more) break;
    }
    // Trailers never overwrite headers already parsed from the header
    // section (RFC 7230 §4.1.2 forbids framing/control fields there — a
    // trailer saying "Content-Length: 0" must not clobber the real framing).
    for (const auto& [name, value] : chunks.trailers()) {
      head->headers.emplace(name, value);
    }
    return Status::OK();
  }
  if (head->length) {
    if (*head->length > kMaxBodyBytes) return BodyTooLarge();
    return reader->ReadExact(*head->length, body);
  }
  // Neither framing: the body ends when the peer closes.
  SCUBE_RETURN_IF_ERROR(reader->ReadToEof(kMaxBodyBytes, body));
  return body->size() > kMaxBodyBytes ? BodyTooLarge() : Status::OK();
}

Result<HttpClientResponse> ReadHttpResponse(BufferedReader* reader) {
  auto head = ReadHttpResponseHead(reader);
  if (!head.ok()) return head.status();
  HttpClientResponse resp;
  SCUBE_RETURN_IF_ERROR(ReadHttpBody(reader, &*head, &resp.body));
  resp.status = head->status;
  resp.headers = std::move(head->headers);
  return resp;
}

std::string SerializeRequest(const std::string& method,
                             const std::string& target,
                             const std::string& body,
                             const std::string& content_type) {
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: localhost\r\n";
  request += "Content-Type: " + content_type + "\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: keep-alive\r\n\r\n";
  request += body;
  return request;
}

Result<HttpClientResponse> RoundTrip(Socket* socket, BufferedReader* reader,
                                     const std::string& method,
                                     const std::string& target,
                                     const std::string& body,
                                     const std::string& content_type) {
  SCUBE_RETURN_IF_ERROR(
      socket->WriteAll(SerializeRequest(method, target, body, content_type)));
  return ReadHttpResponse(reader);
}

Status OpenClientConnection(const std::string& host, uint16_t port,
                            const ClientOptions& options,
                            ClientConnection* conn) {
  conn->Reset();
  auto socket = Connect(host, port);
  if (!socket.ok()) return socket.status();
  conn->socket = std::move(socket).value();
  if (options.read_timeout_s > 0) {
    SCUBE_RETURN_IF_ERROR(conn->socket.SetRecvTimeout(options.read_timeout_s));
  }
  (void)conn->socket.SetNoDelay();  // best effort: latency, not correctness
  conn->reader = std::make_unique<BufferedReader>(&conn->socket);
  return Status::OK();
}

}  // namespace net
}  // namespace scube
