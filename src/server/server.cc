#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/string_util.h"
#include "common/timer.h"

namespace scube {
namespace server {

ScubedServer::ScubedServer(query::QueryBackend* backend,
                           ServerOptions options)
    : backend_(backend),
      options_(std::move(options)),
      slow_log_(options_.slow_query_ms, options_.slow_query_sink) {
  options_.num_connection_threads =
      std::max<size_t>(1, options_.num_connection_threads);
  router_ = RouterContext{backend_, &metrics_, &slow_log_,
                          options_.trace_all};
}

ScubedServer::~ScubedServer() { Stop(); }

Status ScubedServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  auto listener = net::ListenSocket::Bind(options_.port,
                                          options_.loopback_only);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();

  started_ = true;
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  handlers_.reserve(options_.num_connection_threads);
  for (size_t i = 0; i < options_.num_connection_threads; ++i) {
    handlers_.emplace_back([this] { ConnectionLoop(); });
  }
  return Status::OK();
}

void ScubedServer::Stop() {
  if (!started_) return;
  started_ = false;
  running_.store(false, std::memory_order_release);
  // Wake the blocked accept() without closing the fd: the fd number must
  // not be reused by a concurrent connection while accept() still holds
  // it. The actual close happens after the acceptor is joined.
  listener_.ShutdownAccept();
  {
    // Broadcast under conn_mu_. ConnectionLoop evaluates its wait
    // predicate (!running() || !pending_.empty()) while holding this
    // mutex, but running_ is flipped above WITHOUT it — so a handler
    // that read running()==true could block right after a bare notify
    // and never wake (lost wakeup: Stop() then hangs on handler.join()).
    // Holding the mutex for the broadcast pins every handler on one side
    // of the predicate check: it is either blocked in Wait (gets this
    // notify) or has yet to acquire conn_mu_ (will see running false).
    sync::MutexLock lock(&conn_mu_);
    conn_cv_.SignalAll();
  }
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  handlers_.clear();
  // Connections still queued but never handled just close (RAII).
  sync::MutexLock lock(&conn_mu_);
  for (size_t i = 0; i < pending_.size(); ++i) metrics_.ConnClosed();
  pending_.clear();
}

void ScubedServer::AcceptLoop() {
  while (running()) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      // Listener closed (shutdown) or transient error; only exit on
      // shutdown. Back off briefly so a persistent error (EMFILE under
      // an fd flood) does not busy-spin a core at the worst moment.
      if (!running()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    metrics_.ConnOpened();
    net::Socket socket = std::move(accepted).value();
    bool shed = false;
    {
      sync::MutexLock lock(&conn_mu_);
      if (pending_.size() >= options_.max_queued_connections) {
        shed = true;
      } else {
        pending_.push_back(std::move(socket));
      }
    }
    if (shed) {
      // Connection-level load shedding: answer 503 without parsing.
      metrics_.Inc(metrics_.connections_shed);
      net::HttpResponse resp(503,
                             "{\"error\":\"connection queue full\"}\n");
      resp.SetHeader("Retry-After", "1");
      socket.WriteAll(net::SerializeResponse(resp, /*keep_alive=*/false));
      metrics_.ConnClosed();
      continue;  // socket closes via RAII
    }
    conn_cv_.Signal();
  }
}

void ScubedServer::ConnectionLoop() {
  while (true) {
    net::Socket socket;
    {
      sync::MutexLock lock(&conn_mu_);
      while (running() && pending_.empty()) conn_cv_.Wait(&conn_mu_);
      if (pending_.empty()) return;  // stopping and drained
      socket = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeConnection(std::move(socket));
    metrics_.ConnClosed();
  }
}

bool ScubedServer::ConnectionsWaiting() {
  sync::MutexLock lock(&conn_mu_);
  return !pending_.empty();
}

std::optional<std::string> ScubedServer::NextLine(
    net::BufferedReader* reader, bool yield) {
  const double idle_timeout = options_.idle_timeout_seconds;
  // Total wall cap on getting one line. The per-read SO_RCVTIMEO alone is
  // defeatable by a peer trickling a byte per tick (each byte resets the
  // timer); this deadline is not.
  reader->set_deadline(std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(idle_timeout)));
  const size_t max_polls = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(
             idle_timeout / std::max(options_.idle_poll_seconds, 1e-3))));
  for (size_t idle = 0; idle < max_polls; ++idle) {
    auto line = reader->ReadLine();
    if (line.ok()) {
      reader->clear_deadline();
      return std::move(line).value();
    }
    // A receive timeout is the idle poll tick: keep waiting while the
    // server runs, close once it stops (this bounds Stop() latency) or,
    // when yielding, once another connection waits for a handler.
    if (line.status().code() != StatusCode::kDeadlineExceeded ||
        !running() || (yield && ConnectionsWaiting())) {
      reader->clear_deadline();
      return std::nullopt;
    }
  }
  reader->clear_deadline();
  metrics_.Inc(metrics_.idle_timeout_closes);
  return std::nullopt;  // idle timeout
}

void ScubedServer::ServeConnection(net::Socket socket) {
  socket.SetNoDelay();
  socket.SetRecvTimeout(options_.idle_poll_seconds);
  net::BufferedReader reader(&socket);
  // Only a later request line yields the handler to a waiting connection:
  // the first one is what this connection was accepted for.
  for (bool yield = false;; yield = true) {
    auto request_line = NextLine(&reader, yield);
    // RFC 9112 §2.2: one empty line before a request line is skipped. A
    // second one reads as a malformed request line, so a peer trickling
    // CRLFs cannot hold the handler.
    if (request_line && request_line->empty()) {
      request_line = NextLine(&reader, yield);
    }
    if (!request_line) return;
    // Mid-request reads (headers, body) get the longer request-read
    // bound; the short idle-poll timeout is only for the gap *between*
    // requests, where it doubles as the shutdown poll tick. The reader
    // deadline caps the request's TOTAL read time — the per-read timeout
    // alone is defeatable by a slow loris dripping a byte per tick.
    const auto read_start = std::chrono::steady_clock::now();
    socket.SetRecvTimeout(options_.request_read_seconds);
    reader.set_deadline(
        read_start +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options_.request_read_seconds)));
    auto parsed = net::ReadHttpRequest(&reader, *request_line);
    reader.clear_deadline();
    socket.SetRecvTimeout(options_.idle_poll_seconds);
    net::HttpResponse response;
    bool keep_alive = false;
    bool head = false;
    bool streamed = parsed.ok() && IsStreamingQuery(*parsed);
    if (!parsed.ok()) {
      if (parsed.status().code() == StatusCode::kDeadlineExceeded) {
        metrics_.Inc(metrics_.header_deadline_closes);
        response = net::HttpResponse(
            408, "{\"error\":\"request read timed out\"}\n");
      } else {
        response = net::HttpResponse(
            400,
            "{\"error\":" + JsonQuote(parsed.status().message()) + "}\n");
      }
    } else {
      keep_alive = parsed->keep_alive && running();
      head = parsed->method == "HEAD";
      // Stamp the read window so handlers can record a retroactive
      // conn.read span (request line to parse complete).
      parsed->read_start = read_start;
      parsed->read_end = std::chrono::steady_clock::now();
    }
    metrics_.Inc(metrics_.http_requests);
    // Route latency: handler entry (request fully read) to last byte
    // written. Unparseable requests land under route="other".
    WallTimer route_timer;
    const Route route = parsed.ok() ? ClassifyRoute(*parsed) : Route::kOther;
    if (streamed) {
      // Streamed answers write incrementally — chunked transfer encoding
      // straight onto the socket, no response buffer. The handler owns
      // error rendering and metrics, the route latency included; a false
      // return means the transport died mid-stream and the connection
      // must close.
      bool alive = HandleQueryStream(
          router_, *parsed, keep_alive,
          [&socket](std::string_view data) { return socket.WriteAll(data); });
      if (!alive) return;
    } else {
      if (parsed.ok()) response = HandleHttpRequest(router_, *parsed);
      if (response.status >= 400) metrics_.Inc(metrics_.http_errors);
      // Buffered responses hold the whole serialised body — the number
      // the streamed path keeps flat (compare the two peaks in /metrics).
      metrics_.RaiseMax(metrics_.buffered_body_peak, response.body.size());
      std::string wire = net::SerializeResponse(response, keep_alive);
      // HEAD: same headers as GET (including the true Content-Length),
      // no body bytes.
      if (head) wire.resize(wire.size() - response.body.size());
      const bool wrote = socket.WriteAll(wire).ok();
      metrics_.ObserveRoute(route, route_timer.Millis());
      if (!wrote) return;
    }
    if (!keep_alive) return;
  }
}

}  // namespace server
}  // namespace scube
