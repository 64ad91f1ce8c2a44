// Shard client pool: persistent keep-alive HTTP connections to each
// shard's replica set, with round-robin replica selection for read-only
// traffic, failover, and per-shard health counters.
//
// Topology syntax (the --shards flag): shards are comma-separated,
// replicas of one shard pipe-separated:
//
//   --shards host1:7101,host2:7102            three shards, no replicas
//   --shards a:7101|b:7101,c:7102|d:7102      two shards, two replicas each
//
// All shard traffic is read-only (/query, /cubes, /metrics), so any
// replica of a shard can answer any request and a failed round trip can
// be retried on a sibling without double-apply risk.
//
// Thread-safety: distinct ShardClients may be used concurrently (the
// scatter fan-out drives one thread per shard); one ShardClient must not
// be used from two threads at once.

#ifndef SCUBE_CLUSTER_SHARD_CLIENT_H_
#define SCUBE_CLUSTER_SHARD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/http.h"

namespace scube {
namespace cluster {

/// \brief One backend address.
struct ShardEndpoint {
  std::string host;
  uint16_t port = 0;

  std::string Label() const { return host + ":" + std::to_string(port); }
};

/// \brief One shard: the replica set that can answer for its partition.
struct ShardSpec {
  std::vector<ShardEndpoint> replicas;

  /// "host:port|host:port" — the shard's display name in errors/metrics.
  std::string Label() const;
};

/// Parses the --shards topology ("h:p|h:p,h:p"). InvalidArgument on an
/// empty list, a malformed endpoint or a port outside [1, 65535].
Result<std::vector<ShardSpec>> ParseShardList(std::string_view spec);

/// \brief Snapshot of one shard's health counters.
struct ShardHealth {
  uint64_t requests = 0;  ///< round trips attempted (streams included)
  uint64_t failures = 0;  ///< round trips that exhausted every replica
};

/// \brief Client for one shard's replica set.
class ShardClient {
 public:
  ShardClient(ShardSpec spec, net::ClientOptions options);

  const ShardSpec& spec() const { return spec_; }

  /// Buffered request/response. Replicas are tried round-robin, each with
  /// the full RoundTripWithRetry policy (stale keep-alive reconnect,
  /// backoff); the error of the last replica is returned when all fail.
  Result<net::HttpClientResponse> RoundTrip(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::string& content_type = "text/plain");

  /// Starts a streamed request: sends it and reads the response head,
  /// leaving the connection positioned at the first body byte. The caller
  /// pulls the body incrementally (net::ChunkedBodyReader over reader()),
  /// then MUST call FinishStream. Failover across replicas applies only
  /// up to the head — once body bytes flow, a failure surfaces to the
  /// caller (re-requesting mid-merge would desync the k-way order).
  Result<net::HttpResponseHead> StartStream(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::string& content_type = "text/plain");

  /// The connection carrying the active stream (valid after a successful
  /// StartStream, until FinishStream).
  net::BufferedReader* reader();

  /// Ends the active stream. `clean` = the body was consumed exactly to
  /// its end (the connection sits at a message boundary and is kept for
  /// reuse); otherwise the connection is torn down.
  void FinishStream(bool clean);

  ShardHealth health() const;

 private:
  /// The replica to try first for the next request.
  size_t NextReplica();

  ShardSpec spec_;
  net::ClientOptions options_;
  /// One persistent connection per replica. unique_ptr: a BufferedReader
  /// points at its Socket, so the pair must stay at a fixed address.
  std::vector<std::unique_ptr<net::ClientConnection>> conns_;
  size_t rr_ = 0;              ///< round-robin cursor
  size_t stream_replica_ = 0;  ///< replica serving the active stream

  /// Health counters are atomics on purpose, not GUARDED_BY a mutex: the
  /// single writer is the request path (serialised by the scatter layer's
  /// request_mu_ per the class contract above), while /metrics reads
  /// health() from server threads concurrently. fetch_add from one thread
  /// + relaxed loads from others is race-free by construction; audited
  /// during the thread-safety annotation pass.
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failures_{0};
};

}  // namespace cluster
}  // namespace scube

#endif  // SCUBE_CLUSTER_SHARD_CLIENT_H_
