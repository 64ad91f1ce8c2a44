// Measurement helpers for the SCube benchmark: exact order statistics,
// process CPU / RSS / steal readings, a content hash, and the in-memory
// span log the traced run writes out when it finishes.

#ifndef SCUBE_PERFBENCH_UTIL_H_
#define SCUBE_PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Recorded samples; quantiles are exact nearest-rank order statistics
/// (no interpolation, no histogram buckets).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank quantile: the ceil(q * n)-th smallest sample.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Min() const;
  double Max() const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// Process user + system CPU seconds (all threads: load generator and
/// in-process servers alike).
double ProcessCpuSeconds();

/// ru_maxrss of this process, in MiB.
double PeakRssMiB();

/// Aggregate /proc/stat "cpu" counters, for the steal share of a window.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
  static CpuTicks Read();
  /// Steal ticks / all ticks between `before` and this reading.
  double StealShareSince(const CpuTicks& before) const;
};

/// FNV-1a 64-bit.
uint64_t Fnv1a(std::string_view data, uint64_t seed = 1469598103934665603ULL);

/// \brief Spans recorded by the benchmark around calls into each layer:
/// name, start, end and the span that caused it, kept in memory and
/// written out as JSON once the run ends.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = 0;

  /// Opens a span; returns its 1-based id.
  uint32_t Begin(const std::string& name, uint32_t parent = kNoParent);
  void End(uint32_t id);
  /// Records an already measured interval (e.g. a phase the program
  /// itself timed) as a closed span.
  uint32_t Record(const std::string& name, Clock::time_point start,
                  Clock::time_point end, uint32_t parent = kNoParent);

  /// Duration in ms of every closed span with this name.
  Samples Durations(const std::string& name) const;
  bool WriteJson(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    uint32_t parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog (null log = no-op).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name,
             uint32_t parent = SpanLog::kNoParent)
      : log_(log), id_(log ? log->Begin(name, parent) : 0) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    if (log_ != nullptr && id_ != 0) log_->End(id_);
    id_ = 0;
  }
  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

/// \brief One reported metric: value, unit, the samples behind it and
/// (traced run) the end-to-end metric it should move.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;
};

/// Formats a double with all significant digits for the JSON line.
std::string JsonNumber(double v);
std::string JsonQuote(std::string_view s);

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_UTIL_H_
