// ScubedServer: the network front-end over a QueryBackend (a local
// QueryService, or a cluster::ScatterExecutor in router mode).
//
// One acceptor thread pushes connections onto a bounded queue consumed by
// a fixed pool of connection threads (thread count and queue bound are the
// connection-level admission control; query-level admission lives in
// QueryService). Each connection thread runs one HTTP/1.1 keep-alive
// request loop (router.h routes) from the connection's first byte: a
// first line that is not a request line is answered 400 and closed.
//
// Two deadlines bound how long a peer can hold a handler thread: the
// keep-alive idle timeout between requests, and a total read deadline
// per request (headers and body; 408 when it passes). Between HTTP
// requests a handler also gives an idle keep-alive connection up at its
// next idle-poll tick when accepted connections are waiting for a
// handler: HTTP lets a server close an idle keep-alive connection at any
// time, and the waiting connection may already have a request written.
//
// Stop() is graceful: the listener closes, idle keep-alive connections
// drop at their next poll tick, in-flight requests finish, and the
// underlying QueryService drains (it is not owned and stays usable).

#ifndef SCUBE_SERVER_SERVER_H_
#define SCUBE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/http.h"
#include "net/socket.h"
#include "query/backend.h"
#include "server/metrics.h"
#include "server/router.h"
#include "server/slow_query_log.h"

namespace scube {
namespace server {

/// \brief Connection-level tuning.
struct ServerOptions {
  /// TCP port; 0 = kernel-assigned (read back via port()).
  uint16_t port = 8080;

  /// Bind 127.0.0.1 only (benches, tests, local demos).
  bool loopback_only = false;

  /// Connection handler threads. Each handles one connection at a time;
  /// with keep-alive this is the concurrent-connection capacity.
  size_t num_connection_threads = 8;

  /// Accepted connections waiting for a handler beyond which new ones are
  /// shed with an immediate 503 + close.
  size_t max_queued_connections = 64;

  /// Seconds a connection may sit idle between requests before the
  /// handler polls for shutdown (and, when stopping, closes it). Also the
  /// bound on Stop() latency for idle keep-alive connections, and on how
  /// long an idle keep-alive connection holds a handler that a waiting
  /// connection needs.
  double idle_poll_seconds = 0.5;

  /// Keep-alive idle timeout in seconds (--idle-timeout-ms): a connection
  /// with no request bytes for this long is closed. Checked at idle-poll
  /// granularity.
  double idle_timeout_seconds = 60.0;

  /// Receive-timeout bound while *inside* one request (headers/body after
  /// the request line). Larger than the idle poll so a brief network
  /// stall mid-request is not fatal; small enough that a stalled peer
  /// cannot pin a handler thread indefinitely.
  double request_read_seconds = 10.0;

  /// Slow-query threshold in milliseconds (--slow-query-ms); requests
  /// slower than this emit one JSON line with their span tree. 0 = off.
  double slow_query_ms = 0;

  /// Where slow-query lines go (not owned; tests pass a tmpfile()).
  /// Null falls back to stderr.
  std::FILE* slow_query_sink = nullptr;

  /// Trace every request even without ?debug=trace (--trace flag).
  bool trace_all = false;
};

/// \brief The scubed serving front-end. Start() spawns threads; Stop()
/// (or the destructor) shuts down gracefully.
class ScubedServer {
 public:
  ScubedServer(query::QueryBackend* backend, ServerOptions options = {});
  ~ScubedServer();

  ScubedServer(const ScubedServer&) = delete;
  ScubedServer& operator=(const ScubedServer&) = delete;

  /// Binds and starts accepting. IoError when the port is taken.
  Status Start();

  /// Graceful shutdown: stop accepting, finish in-flight requests, join
  /// all threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return listener_.port(); }

  bool running() const { return running_.load(std::memory_order_acquire); }

  const ServerMetrics& metrics() const { return metrics_; }

 private:
  void AcceptLoop();
  void ConnectionLoop();
  void ServeConnection(net::Socket socket);

  /// ReadLine that tolerates idle-poll timeouts while running; returns
  /// nullopt when the connection should close (EOF, error, shutdown,
  /// or idle timeout). With `yield`, an idle-poll tick that finds
  /// connections waiting in pending_ closes the connection too.
  std::optional<std::string> NextLine(net::BufferedReader* reader,
                                      bool yield = false);

  /// True when accepted connections are waiting for a handler.
  bool ConnectionsWaiting() EXCLUDES(conn_mu_);

  query::QueryBackend* backend_;
  ServerOptions options_;
  ServerMetrics metrics_;
  SlowQueryLog slow_log_;  ///< initialised from options_: declare after it
  RouterContext router_;

  net::ListenSocket listener_;
  std::atomic<bool> running_{false};
  bool started_ = false;

  sync::Mutex conn_mu_;
  sync::CondVar conn_cv_;
  std::deque<net::Socket> pending_ GUARDED_BY(conn_mu_);
  std::thread acceptor_;
  std::vector<std::thread> handlers_;
};

}  // namespace server
}  // namespace scube

#endif  // SCUBE_SERVER_SERVER_H_
