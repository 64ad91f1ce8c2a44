#include "query/cube_store.h"

#include <algorithm>

#include "query/executor.h"

namespace scube {
namespace query {

uint64_t CubeStore::Publish(const std::string& name,
                            cube::SegregationCube cube, size_t num_threads,
                            trace::TraceContext* trace) {
  // Seal outside the lock: index construction is the expensive part and
  // must not block readers of other cubes.
  trace::Span seal_span(trace, "build.seal");
  auto snapshot = std::make_shared<const cube::CubeView>(
      std::move(cube).Seal(num_threads));
  seal_span.End();
  sync::MutexLock lock(&mu_);
  Entry& entry = entries_[name];
  uint64_t version = ++entry.latest;
  entry.versions.push_back(SealedVersion{version, std::move(snapshot)});
  while (entry.versions.size() > max_versions_) {
    entry.versions.pop_front();
  }
  return version;
}

CubeStore::Snapshot CubeStore::Get(const std::string& name,
                                   uint64_t* version) const {
  sync::MutexLock lock(&mu_);
  auto it = entries_.find(name);
  bool found = it != entries_.end() && !it->second.versions.empty();
  if (version != nullptr) {
    *version = found ? it->second.versions.back().version : 0;
  }
  return found ? it->second.versions.back().view : nullptr;
}

CubeStore::Snapshot CubeStore::GetVersion(const std::string& name,
                                          uint64_t version) const {
  sync::MutexLock lock(&mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  for (const SealedVersion& sealed : it->second.versions) {
    if (sealed.version == version) return sealed.view;
  }
  return nullptr;
}

std::shared_ptr<const Executor> CubeStore::GetExecutor(
    const std::string& name, uint64_t version) const {
  Snapshot snapshot = GetVersion(name, version);
  if (snapshot == nullptr) return nullptr;
  // The deleter captures the snapshot: the executor alone keeps the view
  // it references alive.
  return std::shared_ptr<const Executor>(
      new Executor(*snapshot, version),
      [snapshot](const Executor* e) { delete e; });
}

uint64_t CubeStore::Version(const std::string& name) const {
  sync::MutexLock lock(&mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.latest;
}

std::vector<uint64_t> CubeStore::RetainedVersions(
    const std::string& name) const {
  sync::MutexLock lock(&mu_);
  auto it = entries_.find(name);
  std::vector<uint64_t> out;
  if (it == entries_.end()) return out;
  out.reserve(it->second.versions.size());
  for (const SealedVersion& sealed : it->second.versions) {
    out.push_back(sealed.version);
  }
  return out;
}

std::vector<std::string> CubeStore::Names() const {
  std::vector<std::string> names;
  {
    sync::MutexLock lock(&mu_);
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string ResultCache::MakeKey(const std::string& cube, uint64_t version,
                                 const std::string& canonical_query) {
  return cube + '\x1F' + std::to_string(version) + '\x1F' + canonical_query;
}

std::optional<QueryResult> ResultCache::Get(
    const std::string& cube, uint64_t version,
    const std::string& canonical_query) {
  std::string key = MakeKey(cube, version, canonical_query);
  sync::MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  ++it->second->hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->result;
}

void ResultCache::Put(const std::string& cube, uint64_t version,
                      const std::string& canonical_query,
                      QueryResult result) {
  if (capacity_ == 0) return;
  std::string key = MakeKey(cube, version, canonical_query);
  sync::MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(
      Entry{cube, version, canonical_query, 0, std::move(result)});
  index_[std::move(key)] = lru_.begin();
  while (lru_.size() > capacity_) {
    const Entry& victim = lru_.back();
    index_.erase(MakeKey(victim.cube, victim.version, victim.canonical));
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::vector<std::string> ResultCache::Hottest(const std::string& cube,
                                              size_t n) const {
  // Hit counts summed per canonical text across versions; insertion order
  // of `ranked` follows LRU order (front = most recent), so the stable
  // sort's tie-break is recency.
  std::vector<std::pair<std::string, uint64_t>> ranked;
  {
    sync::MutexLock lock(&mu_);
    std::unordered_map<std::string, size_t> slot;  // canonical -> ranked idx
    for (const Entry& e : lru_) {
      if (e.cube != cube) continue;
      auto [it, inserted] = slot.emplace(e.canonical, ranked.size());
      if (inserted) {
        ranked.emplace_back(e.canonical, e.hits);
      } else {
        ranked[it->second].second += e.hits;
      }
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (ranked.size() > n) ranked.resize(n);
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (auto& [text, hits] : ranked) out.push_back(std::move(text));
  return out;
}

ResultCache::Stats ResultCache::stats() const {
  sync::MutexLock lock(&mu_);
  return stats_;
}

size_t ResultCache::size() const {
  sync::MutexLock lock(&mu_);
  return lru_.size();
}

void ResultCache::Clear() {
  sync::MutexLock lock(&mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace query
}  // namespace scube
