// What every workload stands on: the seeded scenario rendered as the three
// CSV inputs of paper Fig. 3, the publish path from those bytes to a
// queryable snapshot, and in-process loopback servers (one node, or two
// shards behind a scatter router) built only from public constructors.

#ifndef SCUBE_PERFBENCH_FIXTURE_H_
#define SCUBE_PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/partition.h"
#include "cluster/scatter.h"
#include "common/result.h"
#include "cube/cube.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "relational/schema.h"
#include "scube/pipeline.h"
#include "server/server.h"
#include "util.h"

namespace perfbench {

/// The published cube's name (statements carry no FROM clause).
inline constexpr const char* kCubeName = "default";

/// The seeded scenario as CSV bytes plus the schemas the loader needs.
struct CsvInputs {
  std::string individuals;
  std::string groups;
  std::string membership;
  scube::relational::Schema individual_schema;
  scube::relational::Schema group_schema;
};

/// Generates datagen::ItalianConfig(0.02, seed) and renders it as CSV.
CsvInputs MakeCsvInputs(uint64_t seed);

/// Company-graph projection, threshold clustering, closed itemsets with
/// <= 3 SA items, <= 2 CA items, min support 20, fill on all cores.
scube::pipeline::PipelineConfig BenchPipelineConfig();

/// CSV bytes -> cube: parse the three documents, load, run the pipeline.
/// `trace` (optional) receives the cube builder's own build.* spans.
scube::Result<scube::cube::SegregationCube> BuildCubeFromCsv(
    const CsvInputs& inputs, scube::trace::TraceContext* trace = nullptr);

/// Parses the three CSV documents (individuals, groups, membership).
scube::Result<std::vector<scube::CsvDocument>> ParseCsvInputs(
    const CsvInputs& inputs);

/// FNV-1a of the sealed snapshot's CSV rendering.
uint64_t SnapshotHash(const scube::query::CubeStore& store);

/// One loopback server over its own store and service, all defaults
/// except the port and loopback binding.
struct Node {
  scube::query::CubeStore store;
  std::unique_ptr<scube::query::QueryService> service;
  std::unique_ptr<scube::server::ScubedServer> server;
  ~Node();
  uint16_t port() const { return server->port(); }
};

/// Publishes `cube` on a fresh node and starts its server.
std::unique_ptr<Node> StartNode(scube::cube::SegregationCube cube);

/// Two shard nodes behind a ScatterExecutor router server.
struct ShardedCluster {
  std::vector<std::unique_ptr<Node>> shards;
  std::unique_ptr<scube::cluster::ScatterExecutor> scatter;
  std::unique_ptr<scube::server::ScubedServer> router;
  scube::cluster::PartitionStats partition_stats;
  double partition_ms = 0;
  ~ShardedCluster();
  uint16_t port() const { return router->port(); }
};

/// Splits the sealed `view` into `num_shards` shards and serves them.
std::unique_ptr<ShardedCluster> StartCluster(
    const scube::cube::CubeView& view, size_t num_shards);

/// Prints `what: status` and exits 2 (a set-up error, not a result).
[[noreturn]] void Die(const std::string& what, const scube::Status& status);

/// GET /metrics from a loopback server; empty on transport failure.
std::string FetchMetrics(uint16_t port);

/// The value of one series in a /metrics exposition (summed over label
/// sets); -1 when the series is absent.
double ScrapeSeries(const std::string& exposition, const std::string& series);

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_FIXTURE_H_
