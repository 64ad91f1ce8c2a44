// Portable TCP sockets for the scubed serving front-end.
//
// Thin RAII wrappers over POSIX sockets: a connected Socket (read/write),
// a ListenSocket (bind/listen/accept, port 0 = kernel-assigned), and a
// Connect() bounded by 5 s for clients, benches and tests. All other calls
// are blocking — the server's concurrency lives in its handler thread
// pool — with optional receive timeouts so a stuck peer cannot pin a
// connection thread forever.

#ifndef SCUBE_NET_SOCKET_H_
#define SCUBE_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace scube {
namespace net {

/// \brief A connected TCP socket (RAII over the fd). Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads up to `n` bytes; 0 = orderly peer shutdown. Retries EINTR.
  /// DeadlineExceeded on a receive timeout (the server's idle poll tick
  /// branches on this code), IoError on any other failure.
  Result<size_t> Read(char* buf, size_t n);

  /// Writes all of `data`, retrying partial writes and EINTR.
  Status WriteAll(std::string_view data);

  /// Bounds every subsequent Read to `seconds` (0 = no timeout).
  Status SetRecvTimeout(double seconds);

  /// Disables Nagle's algorithm (small request/response round trips).
  Status SetNoDelay();

  /// Closes the fd (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// \brief A listening TCP socket bound to 127.0.0.1 or all interfaces.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds and listens. `port` 0 asks the kernel for an ephemeral port
  /// (read it back via port()). `loopback_only` binds 127.0.0.1.
  static Result<ListenSocket> Bind(uint16_t port, bool loopback_only = false,
                                   int backlog = 128);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// The bound port (the kernel-assigned one when Bind got 0).
  uint16_t port() const { return port_; }

  /// Blocks until a connection arrives; IoError once ShutdownAccept()
  /// (or Close()) has been called.
  Result<Socket> Accept();

  /// Wakes any blocked Accept() without closing the fd. Safe to call
  /// from a thread other than the acceptor while Accept() is in flight —
  /// the fd stays allocated (no reuse hazard) until Close() runs after
  /// the acceptor thread is joined. Idempotent.
  void ShutdownAccept();

  /// Closes the fd. NOT safe concurrently with a blocked Accept(): call
  /// ShutdownAccept() first, join the acceptor, then Close(). Idempotent
  /// (also runs on destruction).
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Connects to `host:port` (numeric IPv4 or a resolvable name) within
/// 5 s: a non-blocking connect and poll, the socket handed back in
/// blocking mode. DeadlineExceeded when 5 s pass before the connection
/// establishes, so one dead backend cannot stall a whole scatter fan-out
/// for the kernel's multi-minute SYN retry budget.
Result<Socket> Connect(const std::string& host, uint16_t port);

}  // namespace net
}  // namespace scube

#endif  // SCUBE_NET_SOCKET_H_
