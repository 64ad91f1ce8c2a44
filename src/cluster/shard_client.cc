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
  sync::MutexLock lock(&mu_);
  idle_.resize(spec_.replicas.size());
}

ShardClient::Call ShardClient::Send(const std::string& method,
                                    const std::string& target,
                                    const std::string& body,
                                    const std::string& content_type) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  Call call;
  call.client_ = this;
  call.request_ = net::SerializeRequest(method, target, body, content_type);
  call.replica_ = next_replica_.fetch_add(1, std::memory_order_relaxed) %
                  spec_.replicas.size();
  call.Write(/*fresh=*/false);
  return call;
}

void ShardClient::Call::Write(bool fresh) {
  conn_ = fresh ? nullptr : client_->TakeIdle(replica_);
  reused_ = conn_ != nullptr;
  if (conn_ == nullptr) {
    conn_ = std::make_unique<net::ClientConnection>();
    const ShardEndpoint& ep = client_->spec_.replicas[replica_];
    sent_ = net::OpenClientConnection(ep.host, ep.port, client_->options_,
                                      conn_.get());
    if (!sent_.ok()) return;
  }
  sent_ = conn_->socket.WriteAll(request_);
}

Result<net::HttpResponseHead> ShardClient::Call::ReadHead() {
  const size_t n = client_->spec_.replicas.size();
  for (;;) {
    if (sent_.ok()) {
      auto head = net::ReadHttpResponseHead(conn_->reader.get());
      if (head.ok()) return head;
      sent_ = head.status();
    }
    conn_.reset();
    if (reused_) {
      // The shard closed the connection while it sat idle: reconnect and
      // resend once.
      Write(/*fresh=*/true);
    } else if (replicas_tried_ < n) {
      ++replicas_tried_;
      replica_ = (replica_ + 1) % n;
      Write(/*fresh=*/false);
    } else {
      client_->failures_.fetch_add(1, std::memory_order_relaxed);
      return sent_;
    }
  }
}

void ShardClient::Call::Release() {
  if (conn_ != nullptr) client_->PutIdle(replica_, std::move(conn_));
}

std::unique_ptr<net::ClientConnection> ShardClient::TakeIdle(size_t replica) {
  sync::MutexLock lock(&mu_);
  std::vector<std::unique_ptr<net::ClientConnection>>& idle = idle_[replica];
  if (idle.empty()) return nullptr;
  std::unique_ptr<net::ClientConnection> conn = std::move(idle.back());
  idle.pop_back();
  return conn;
}

void ShardClient::PutIdle(size_t replica,
                          std::unique_ptr<net::ClientConnection> conn) {
  sync::MutexLock lock(&mu_);
  idle_[replica].push_back(std::move(conn));
}

ShardHealth ShardClient::health() const {
  ShardHealth h;
  h.requests = requests_.load(std::memory_order_relaxed);
  h.failures = failures_.load(std::memory_order_relaxed);
  return h;
}

}  // namespace cluster
}  // namespace scube
