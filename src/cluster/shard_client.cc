#include "cluster/shard_client.h"

#include <cstdlib>

#include "common/string_util.h"

namespace scube {
namespace cluster {

std::string ShardSpec::Label() const {
  std::string out;
  for (const ShardEndpoint& r : replicas) {
    if (!out.empty()) out += '|';
    out += r.Label();
  }
  return out;
}

namespace {

Result<ShardEndpoint> ParseEndpoint(std::string_view text) {
  size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return Status::InvalidArgument("bad shard endpoint '" +
                                   std::string(text) +
                                   "' (expected host:port)");
  }
  ShardEndpoint ep;
  ep.host = std::string(text.substr(0, colon));
  std::string port_text(text.substr(colon + 1));
  char* end = nullptr;
  unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    return Status::InvalidArgument("bad shard port '" + port_text +
                                   "' in '" + std::string(text) + "'");
  }
  ep.port = static_cast<uint16_t>(port);
  return ep;
}

}  // namespace

Result<std::vector<ShardSpec>> ParseShardList(std::string_view spec) {
  std::vector<ShardSpec> shards;
  for (const std::string& shard_text : Split(std::string(spec), ',')) {
    std::string_view trimmed = Trim(shard_text);
    if (trimmed.empty()) continue;
    ShardSpec shard;
    for (const std::string& replica_text :
         Split(std::string(trimmed), '|')) {
      std::string_view rep = Trim(replica_text);
      if (rep.empty()) continue;
      auto ep = ParseEndpoint(rep);
      if (!ep.ok()) return ep.status();
      shard.replicas.push_back(std::move(ep).value());
    }
    if (shard.replicas.empty()) {
      return Status::InvalidArgument("shard with no replicas in '" +
                                     std::string(spec) + "'");
    }
    shards.push_back(std::move(shard));
  }
  if (shards.empty()) {
    return Status::InvalidArgument("empty shard list");
  }
  return shards;
}

ShardClient::ShardClient(ShardSpec spec, net::ClientOptions options)
    : spec_(std::move(spec)), options_(options) {
  conns_.reserve(spec_.replicas.size());
  for (size_t i = 0; i < spec_.replicas.size(); ++i) {
    conns_.push_back(std::make_unique<net::ClientConnection>());
  }
}

size_t ShardClient::NextReplica() {
  size_t r = rr_;
  rr_ = (rr_ + 1) % spec_.replicas.size();
  return r;
}

Result<net::HttpClientResponse> ShardClient::RoundTrip(
    const std::string& method, const std::string& target,
    const std::string& body, const std::string& content_type) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = spec_.replicas.size();
  size_t start = NextReplica();
  Status last = Status::IoError("no replicas");
  for (size_t i = 0; i < n; ++i) {
    const size_t r = (start + i) % n;
    const ShardEndpoint& ep = spec_.replicas[r];
    auto resp = net::RoundTripWithRetry(conns_[r].get(), ep.host, ep.port,
                                        method, target, body, content_type,
                                        options_);
    if (resp.ok()) return resp;
    last = resp.status();
  }
  failures_.fetch_add(1, std::memory_order_relaxed);
  return last;
}

Result<net::HttpResponseHead> ShardClient::StartStream(
    const std::string& method, const std::string& target,
    const std::string& body, const std::string& content_type) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = spec_.replicas.size();
  size_t start = NextReplica();
  Status last = Status::IoError("no replicas");

  const std::string request =
      net::SerializeRequest(method, target, body, content_type);

  for (size_t i = 0; i < n; ++i) {
    const size_t r = (start + i) % n;
    const ShardEndpoint& ep = spec_.replicas[r];
    net::ClientConnection* conn = conns_[r].get();
    // A reused keep-alive connection the peer has since closed fails the
    // first send/read — reconnect and resend once before moving on; a
    // fresh connection that fails moves straight to the next replica.
    bool reused = conn->valid();
    for (int pass = 0; pass < 2; ++pass) {
      if (!conn->valid()) {
        Status opened =
            net::OpenClientConnection(ep.host, ep.port, options_, conn);
        if (!opened.ok()) {
          last = std::move(opened);
          break;
        }
      }
      Status sent = conn->socket.WriteAll(request);
      if (sent.ok()) {
        auto head = net::ReadHttpResponseHead(conn->reader.get());
        if (head.ok()) {
          stream_replica_ = r;
          return head;
        }
        last = head.status();
      } else {
        last = std::move(sent);
      }
      conn->Reset();
      if (!reused) break;
      reused = false;
    }
  }
  failures_.fetch_add(1, std::memory_order_relaxed);
  return last;
}

net::BufferedReader* ShardClient::reader() {
  return conns_[stream_replica_]->reader.get();
}

void ShardClient::FinishStream(bool clean) {
  if (!clean) conns_[stream_replica_]->Reset();
}

ShardHealth ShardClient::health() const {
  ShardHealth h;
  h.requests = requests_.load(std::memory_order_relaxed);
  h.failures = failures_.load(std::memory_order_relaxed);
  return h;
}

}  // namespace cluster
}  // namespace scube
