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
// All shard traffic is read-only (/query, /cubes), so any replica of a
// shard can answer any request and a failed request can be resent to a
// sibling without double-apply risk.
//
// Thread safety: one ShardClient serves every request thread. Each
// request checks out its own connection (Send), so requests to one shard
// run at once, each on its own connection. Idle keep-alive connections
// wait in a list under a mutex, and a connection goes back to it only
// after its response was read exactly to its end (Call::Release). A Call
// belongs to the thread that sent it.
//
// Retries: one rule. A reused connection that fails before the response
// head (the shard closed it while it sat idle) reconnects and resends
// once; any other failure before the head moves to the next replica.
// Nothing is retried after the head, and nothing backs off.

#ifndef SCUBE_CLUSTER_SHARD_CLIENT_H_
#define SCUBE_CLUSTER_SHARD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
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
  uint64_t requests = 0;  ///< requests sent, one per Send
  uint64_t failures = 0;  ///< requests that exhausted every replica
};

/// \brief Client for one shard's replica set.
class ShardClient {
 public:
  /// \brief One request on a connection checked out of the idle list, or
  /// opened for it. Send wrote the request; ReadHead reads the response
  /// head under the retry rule; the body is then read from reader().
  /// Release hands the connection back for reuse; a Call destroyed
  /// without Release closes its connection. A Call must not outlive its
  /// ShardClient.
  class Call {
   public:
    /// Reads the response head, resending under the retry rule; the error
    /// of the last attempt when every replica failed.
    Result<net::HttpResponseHead> ReadHead();

    /// The connection's reader, at the first body byte after ReadHead.
    net::BufferedReader* reader() const { return conn_->reader.get(); }

    /// Returns the connection to the idle list. Only for a body read
    /// exactly to its end: the connection must sit at a message boundary.
    void Release();

   private:
    friend class ShardClient;

    /// Writes the request to replica_ over an idle connection, or over a
    /// new one when `fresh` or when none is idle.
    void Write(bool fresh);

    ShardClient* client_ = nullptr;
    std::string request_;
    size_t replica_ = 0;
    size_t replicas_tried_ = 1;
    bool reused_ = false;  ///< conn_ came from the idle list
    Status sent_;          ///< the last connect and write
    std::unique_ptr<net::ClientConnection> conn_;
  };

  ShardClient(ShardSpec spec, net::ClientOptions options);
  ShardClient(const ShardClient&) = delete;  // Calls point at it
  ShardClient& operator=(const ShardClient&) = delete;

  const ShardSpec& spec() const { return spec_; }

  /// Writes a request to the next replica in round-robin order. A failed
  /// connect or write surfaces from ReadHead, which applies the retry rule.
  Call Send(const std::string& method, const std::string& target,
            const std::string& body = "",
            const std::string& content_type = "text/plain");

  ShardHealth health() const;

 private:
  std::unique_ptr<net::ClientConnection> TakeIdle(size_t replica)
      EXCLUDES(mu_);
  void PutIdle(size_t replica, std::unique_ptr<net::ClientConnection> conn)
      EXCLUDES(mu_);

  const ShardSpec spec_;
  const net::ClientOptions options_;
  std::atomic<size_t> next_replica_{0};  ///< round-robin cursor

  sync::Mutex mu_;
  /// Idle keep-alive connections, one list per replica. unique_ptr: a
  /// BufferedReader points at its Socket, so the pair must stay put.
  std::vector<std::vector<std::unique_ptr<net::ClientConnection>>> idle_
      GUARDED_BY(mu_);

  /// Atomics, so /metrics reads them while requests run.
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failures_{0};
};

}  // namespace cluster
}  // namespace scube

#endif  // SCUBE_CLUSTER_SHARD_CLIENT_H_
