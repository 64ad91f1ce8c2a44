// ScatterExecutor: a query::QueryBackend that answers SCubeQL by fanning
// each statement out to N shard scubeds and k-way merging their wire
// streams back into the exact single-node row order.
//
// How byte-identity works, end to end:
//   1. cluster/partition.h splits a sealed cube by context coordinate;
//      each shard's row stream is a disjoint subsequence of the global
//      stream (ghost cells cover cross-shard adjacency, the executor
//      never emits them).
//   2. Shards answer POST /query?stream=1&format=wire with every row
//      stamped by an order-preserving merge key (query/merge_key.h) and
//      every double as its raw IEEE-754 bit pattern (query/wire_format.h).
//   3. This executor writes every shard's request, then reads the stream
//      heads in shard order, all on the caller's thread (scatter.fanout
//      span, per-shard shard[i].rtt spans). It then pops the smallest key
//      across streams (scatter.merge span) — reproducing the global
//      stream — and pushes rows into the caller's RowSink, where the very
//      same JsonWriter/CsvWriter as a single node renders them.
//
// Pagination: LIMIT/OFFSET is executed at the router, by the same
// query::Pager a node pages its walks with. Shards are asked for
// OFFSET <consumed_i> LIMIT <page + 1> of their own streams (LIMIT
// pushdown still applies shard-side), and the resume token is the node's
// query::Cursor with one position per shard: how many rows of each shard's
// stream the client has consumed. Stitched pages equal the unpaginated
// answer for the same reason single-node pages do: every shard stream is
// deterministic. Statements open through query::PrepareStatement, which
// parses them and checks a resume cursor exactly as a node does.
//
// Versions: one round trip per shard. Every shard names the sealed
// version it answers in its stream head (the wire H line), and the router
// reads every head before it emits a row. A fresh statement goes out
// unpinned and its heads must agree: a mismatch (a rolling publish that
// reached only some shards) is Unavailable, names both shards and both
// versions, and emits no row. A cursor or FROM name@version statement
// goes out pinned, and a head naming another version fails that shard.
// The cursor records the version the heads named, so later pages stay on
// it while the shards retain it. A shard's own refusal (say, a 404 for
// a cube or version it does not hold) passes through with the shard
// prefix below.
//
// Failure: a failed shard fails the request with an error envelope that
// names it ("shard 2 (host:port): ..."). With ?allow_partial=1, analytic
// verbs (TOPK / SURPRISES / REVERSALS) instead answer from the shards
// that responded — navigation verbs never degrade silently.
//
// Concurrency: requests run at once, each on its caller's thread, with no
// router lock. Each request checks out its own keep-alive connection per
// shard from the ShardClient's idle list and returns it only after a
// clean end of body, so two requests never share a connection. A shard
// serves one connection per handler thread (scubed --conns) and gives an
// idle keep-alive connection's handler to a waiting connection, so
// statements beyond a shard's handlers queue there; a statement holds one
// handler per shard while its answer streams.

#ifndef SCUBE_CLUSTER_SCATTER_H_
#define SCUBE_CLUSTER_SCATTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "cluster/shard_client.h"
#include "net/http.h"
#include "query/backend.h"

namespace scube {
namespace cluster {

/// \brief Router tuning knobs.
struct ScatterOptions {
  /// Read timeout for every shard connection.
  net::ClientOptions client;

  /// Deadline applied to requests that carry none (milliseconds, 0 =
  /// unbounded); forwarded to shards as ?deadline_ms=.
  double default_deadline_ms = 0;
};

/// The cubes of a shard's GET /cubes body, whose shape the front-end's
/// HandleCubes fixes (every object carries name, version, retained, cells
/// and defined_cells in that order). ParseError when the body is malformed
/// or a number does not fit a uint64.
Result<std::vector<query::CubeInfo>> ParseCubesJson(const std::string& body);

/// The "error" field of a shard's buffered JSON error body; the trimmed
/// body itself when it has none, and a placeholder when it is empty.
std::string ParseErrorBody(const std::string& body);

/// \brief Scatter-gather query backend over a shard topology. Thread-safe:
/// concurrent ExecuteStreaming calls share only the shard clients and
/// the atomic counters and histograms behind /metrics.
class ScatterExecutor : public query::QueryBackend {
 public:
  ScatterExecutor(std::vector<ShardSpec> shards, ScatterOptions options = {});
  ~ScatterExecutor() override;

  ScatterExecutor(const ScatterExecutor&) = delete;
  ScatterExecutor& operator=(const ScatterExecutor&) = delete;

  query::StreamOutcome ExecuteStreaming(const std::string& text,
                                        query::RowSink& sink,
                                        const query::QueryContext& ctx,
                                        const std::string& cursor) override;

  query::ServiceStats stats() const override;

  /// The cubes every reachable shard agrees on (same latest version);
  /// cells/defined_cells are summed across shards and therefore count
  /// ghost replicas once per holding shard. One GET /cubes per shard,
  /// over the same request path and retry rule as a statement.
  std::vector<query::CubeInfo> ListCubes() const override;

  /// Per-shard fan-out series: scubed_shard_requests_total,
  /// scubed_shard_failures_total, scubed_shard_rtt_seconds and
  /// scubed_scatter_partial_total.
  void AppendBackendMetrics(std::string* out) const override;

  size_t num_shards() const { return clients_.size(); }

 private:
  struct ShardStream;  // one in-flight shard wire stream (scatter.cc)

  const ScatterOptions options_;

  /// Fixed after construction; each ShardClient is thread-safe.
  std::vector<std::unique_ptr<ShardClient>> clients_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> partial_{0};  ///< requests answered from a subset

  /// Head latency (request out -> response head in) per shard.
  std::vector<std::unique_ptr<trace::LatencyHistogram>> rtt_;
};

}  // namespace cluster
}  // namespace scube

#endif  // SCUBE_CLUSTER_SCATTER_H_
