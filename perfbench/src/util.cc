#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Min() const {
  return values_.empty() ? 0 : *std::min_element(values_.begin(), values_.end());
}

double Samples::Max() const {
  return values_.empty() ? 0 : *std::max_element(values_.begin(), values_.end());
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CpuTicks CpuTicks::Read() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice, so it is not added again).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

double CpuTicks::StealShareSince(const CpuTicks& before) const {
  if (total <= before.total) return 0;
  return static_cast<double>(steal - before.steal) /
         static_cast<double>(total - before.total);
}

uint64_t Fnv1a(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint32_t SpanLog::Begin(const std::string& name, uint32_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  return static_cast<uint32_t>(spans_.size());
}

void SpanLog::End(uint32_t id) {
  if (id == 0 || id > spans_.size()) return;
  Span& span = spans_[id - 1];
  span.end = Clock::now();
  span.closed = true;
}

uint32_t SpanLog::Record(const std::string& name, Clock::time_point start,
                         Clock::time_point end, uint32_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start = start;
  span.end = end;
  span.closed = true;
  spans_.push_back(std::move(span));
  return static_cast<uint32_t>(spans_.size());
}

namespace {
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
}  // namespace

Samples SpanLog::Durations(const std::string& name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (span.closed && span.name == name) out.Add(Ms(span.end - span.start));
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"id\":" << (i + 1) << ",\"name\":" << JsonQuote(span.name)
        << ",\"parent\":" << span.parent
        << ",\"start_ms\":" << JsonNumber(Ms(span.start - epoch_))
        << ",\"end_ms\":"
        << (span.closed ? JsonNumber(Ms(span.end - epoch_)) : "null") << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace perfbench
