#include "fixture.h"

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/csv.h"
#include "datagen/scenarios.h"
#include "etl/loaders.h"
#include "http_client.h"

namespace perfbench {

using namespace scube;

CsvInputs MakeCsvInputs(uint64_t seed) {
  auto scenario = datagen::GenerateScenario(datagen::ItalianConfig(0.02, seed));
  if (!scenario.ok()) Die("scenario", scenario.status());
  const etl::ScubeInputs& in = scenario->inputs;
  CsvInputs out;
  out.individuals = in.individuals.ToCsvString();
  out.groups = in.groups.ToCsvString();
  out.individual_schema = in.individuals.schema();
  out.group_schema = in.groups.schema();

  // individualGroup.csv: external ids (the entity tables' kId columns),
  // validity bounds left empty when open-ended.
  auto id_col = [](const relational::Table& table) {
    return table.schema().IndicesOfKind(relational::AttributeKind::kId).at(0);
  };
  size_t ind_id = id_col(in.individuals);
  size_t grp_id = id_col(in.groups);
  scube::CsvWriter writer;
  writer.WriteRow({"individualID", "groupID", "from", "to"});
  for (const graph::Membership& m : in.membership.memberships()) {
    writer.WriteRow(
        {std::to_string(in.individuals.Int64Value(m.individual, ind_id)),
         std::to_string(in.groups.Int64Value(m.group, grp_id)),
         m.valid_from == graph::kDateMin ? "" : std::to_string(m.valid_from),
         m.valid_to == graph::kDateMax ? "" : std::to_string(m.valid_to)});
  }
  out.membership = writer.str();
  return out;
}

pipeline::PipelineConfig BenchPipelineConfig() {
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupClusters;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.mode = fpm::MineMode::kClosed;
  config.cube.max_sa_items = 3;
  config.cube.max_ca_items = 2;
  config.cube.min_support = 20;
  config.cube.num_threads = 0;
  return config;
}

Result<std::vector<CsvDocument>> ParseCsvInputs(const CsvInputs& inputs) {
  CsvReader reader;
  std::vector<CsvDocument> docs;
  for (const std::string* text :
       {&inputs.individuals, &inputs.groups, &inputs.membership}) {
    auto doc = reader.ParseString(*text);
    if (!doc.ok()) return doc.status();
    docs.push_back(std::move(doc).value());
  }
  return docs;
}

Result<cube::SegregationCube> BuildCubeFromCsv(const CsvInputs& inputs,
                                               trace::TraceContext* trace) {
  auto docs = ParseCsvInputs(inputs);
  if (!docs.ok()) return docs.status();
  auto loaded = etl::LoadInputsFromCsv((*docs)[0], inputs.individual_schema,
                                       (*docs)[1], inputs.group_schema,
                                       (*docs)[2]);
  if (!loaded.ok()) return loaded.status();
  pipeline::PipelineConfig config = BenchPipelineConfig();
  config.cube.trace = trace;
  auto result = pipeline::RunPipeline(loaded.value(), config);
  if (!result.ok()) return result.status();
  return std::move(result->cube);
}

uint64_t SnapshotHash(const query::CubeStore& store) {
  auto snapshot = store.Get(kCubeName);
  return snapshot ? Fnv1a(snapshot->ToCsv()) : 0;
}

namespace {

server::ServerOptions LoopbackOptions() {
  server::ServerOptions options;
  options.port = 0;
  options.loopback_only = true;
  return options;
}

}  // namespace

Node::~Node() {
  if (server) server->Stop();
  if (service) service->Shutdown();
}

std::unique_ptr<Node> StartNode(cube::SegregationCube cube) {
  auto node = std::make_unique<Node>();
  node->service = std::make_unique<query::QueryService>(&node->store);
  node->service->PublishAndWarm(kCubeName, std::move(cube));
  node->server = std::make_unique<server::ScubedServer>(node->service.get(),
                                                        LoopbackOptions());
  Status started = node->server->Start();
  if (!started.ok()) Die("server start", started);
  return node;
}

ShardedCluster::~ShardedCluster() {
  if (router) router->Stop();
  router.reset();
  scatter.reset();
  shards.clear();
}

std::unique_ptr<ShardedCluster> StartCluster(const cube::CubeView& view,
                                             size_t num_shards) {
  auto cluster = std::make_unique<ShardedCluster>();
  cluster::PartitionOptions options;
  options.num_shards = num_shards;
  Clock::time_point start = Clock::now();
  std::vector<cube::SegregationCube> parts =
      cluster::PartitionCube(view, options, &cluster->partition_stats);
  cluster->partition_ms = SecondsSince(start) * 1e3;

  std::vector<cluster::ShardSpec> specs;
  for (cube::SegregationCube& part : parts) {
    cluster->shards.push_back(StartNode(std::move(part)));
    cluster::ShardSpec spec;
    spec.replicas.push_back(
        cluster::ShardEndpoint{"127.0.0.1", cluster->shards.back()->port()});
    specs.push_back(std::move(spec));
  }
  cluster->scatter = std::make_unique<cluster::ScatterExecutor>(std::move(specs));
  cluster->router = std::make_unique<server::ScubedServer>(
      cluster->scatter.get(), LoopbackOptions());
  Status started = cluster->router->Start();
  if (!started.ok()) Die("router start", started);
  return cluster;
}

void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.ToString().c_str());
  std::exit(2);
}

std::string FetchMetrics(uint16_t port) {
  HttpClient client;
  if (!client.Connect(port)) return "";
  HttpResult r = client.Request("GET", "/metrics", "");
  return r.transport_ok ? r.body : "";
}

double ScrapeSeries(const std::string& exposition, const std::string& series) {
  std::istringstream in(exposition);
  std::string line;
  double sum = 0;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, series.size(), series) != 0) continue;
    if (line.size() <= series.size()) continue;
    char next = line[series.size()];
    if (next != ' ' && next != '{') continue;
    size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    sum += std::strtod(line.c_str() + space + 1, nullptr);
    found = true;
  }
  return found ? sum : -1;
}

}  // namespace perfbench
