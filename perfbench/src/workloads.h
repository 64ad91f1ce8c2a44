// The four workloads. Each is a closed loop: a client sends its next
// operation only after the previous answer is fully read.
//
//   build    publish from CSV bytes to a queryable snapshot, repeatedly
//   explore  the explore mix over HTTP, 2 keep-alive connections
//   stream   large exports with ?stream=1 (JSON and CSV), 2 connections
//   routed   the explore mix through a 2-shard scatter router
//
// Every answer is checked; a transport error, a non-200 status, an error
// code in the body or a wrong answer is a failed operation.

#ifndef SCUBE_PERFBENCH_WORKLOADS_H_
#define SCUBE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fixture.h"
#include "statements.h"
#include "util.h"

namespace perfbench {

/// Client connections of the serving workloads: 2, or nproc if smaller.
size_t NumClients();

/// What one timed loop measured.
struct LoopResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;      ///< answers that differ from the reference
  uint64_t completed = 0;  ///< operations answered with status OK
  Samples latency_ms;      ///< per operation (build: per publish)
  Samples ttfb_ms;         ///< stream: request written -> status line read
  double wall_s = 0;       ///< loop wall time (build: summed publish time)
  double cpu_s = 0;        ///< process CPU over the loop
  /// Process CPU seconds per gate operation, one sample per window of the
  /// serving loops (per request; stream: per 1000 rows) or per publish.
  Samples cpu_s_per_op;
  double steal = 0;        ///< CPU steal share over the loop
  uint64_t rows = 0;       ///< stream: rows delivered
  // Traced run only: mean sampled scubed_queue_depth, and the result
  // cache counters' increase over the loop (summed over sampled nodes).
  double queue_depth_mean = -1;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  std::string detail;      ///< first failure, for the log
};

/// Seed of client `client`'s statement stream in the timed loop.
uint64_t TimedClientSeed(uint64_t seed, size_t client);

/// Everything a workload stands on, built by one set-up.
struct Fixture {
  CsvInputs csv;
  // build: the publishing service (seal on all cores).
  std::unique_ptr<scube::query::CubeStore> store;
  std::unique_ptr<scube::query::QueryService> publisher;
  uint64_t cube_hash = 0;
  // serving workloads: the single node, and for routed the sharded cluster.
  std::unique_ptr<Node> node;
  std::unique_ptr<ShardedCluster> cluster;
  std::unique_ptr<ExploreMix> explore;
  std::unique_ptr<StreamMix> stream;
  /// The port the workload's load goes to.
  uint16_t port() const { return cluster ? cluster->port() : node->port(); }
};

/// Builds the workload's fixture from the seed, including the warm-up.
std::unique_ptr<Fixture> SetUp(const std::string& workload, uint64_t seed);

/// Half a second of the workload's own load on a separate statement
/// stream of the seed, answers unchecked (no-op for build).
void WarmUp(Fixture* fixture, uint64_t seed);

/// Empties the result caches of the serving nodes.
void ClearCaches(Fixture* fixture);

/// Runs the workload's timed loop for `seconds`. With `sample_metrics`
/// (the traced run) /metrics is scraped on a timer alongside the load,
/// and the build workload passes a span sink to the cube builder.
LoopResult RunLoop(const std::string& workload, Fixture* fixture,
                   uint64_t seed, double seconds, bool sample_metrics);

/// Masks the per-execution fields of a /query JSON body (exec_ms,
/// cache_hit, cells_scanned; and the resume token when `mask_cursor`,
/// since a scatter cursor encodes per-shard positions).
std::string MaskVolatile(const std::string& body, bool mask_cursor);

/// The single-node in-process answer to `text` as POST /query renders it.
std::string ReferenceBody(scube::query::QueryService* service,
                          const std::string& text);

/// Parsed pieces of one streamed page.
struct StreamPage {
  bool ok = false;            ///< code OK and framing understood
  std::string header;         ///< CSV header line (empty for JSON)
  std::string rows;           ///< JSON: the rows array body; CSV: row lines
  uint64_t num_rows = 0;
  std::string next_cursor;
};
StreamPage ParseStreamPage(const std::string& body, bool csv);

/// The unpaged in-process rendering of `text`, cut like a stream page.
StreamPage ReferenceExport(const scube::query::CubeStore& store,
                           const std::string& text, bool csv);

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_WORKLOADS_H_
