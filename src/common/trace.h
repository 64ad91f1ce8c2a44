// Request tracing and latency histograms: the observability primitives
// the serving and build paths hang their instrumentation on.
//
//   TraceContext   one per traced request (or build): a 64-bit trace id,
//                  a monotonic epoch, and a fixed lock-free buffer of
//                  completed spans. Span records are appended with one
//                  atomic fetch_add, so worker threads executing chunks
//                  of the same request record concurrently without locks.
//   Span           RAII: opens on construction, closes on destruction (or
//                  an explicit End()). Nesting is tracked through a
//                  thread-local cursor, so a span opened while another is
//                  open on the same thread becomes its child. Constructed
//                  with a null TraceContext* it is a complete no-op — no
//                  clock read, no allocation, no atomic — which is what
//                  "tracing disabled" costs.
//   LatencyHistogram
//                  fixed log-spaced buckets, atomic counters: Observe()
//                  is two relaxed fetch_adds and never allocates, safe
//                  from any thread. Rendered as a Prometheus histogram by
//                  AppendHistogramSeries; Quantile() interpolates
//                  p50/p95/p99 for benches and reports.
//   Append*        the Prometheus text exposition every /metrics series
//                  goes through: the server's own families, the query
//                  service's cache series and the scatter router's shard
//                  series.
//
// Span names must be string literals (or otherwise outlive the trace):
// records store the pointer, not a copy — that is what keeps an open/close
// pair allocation-free.
//
// Thread-safety: deliberately mutex-free — every shared slot is an atomic
// claimed with fetch_add and the nesting cursor is thread_local, so there
// is nothing here for the thread-safety analysis (common/sync.h) to
// annotate; audited as lock-free during the annotation pass.

#ifndef SCUBE_COMMON_TRACE_H_
#define SCUBE_COMMON_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scube {
namespace trace {

/// \brief One traced request: trace id + epoch + lock-free span buffer.
/// Create on the stack for the request's duration; threads executing on
/// its behalf append spans through the Span RAII helper. Reading (ToJson,
/// Spans) is meant for after the request quiesced — the renderer, the
/// slow-query log and ?debug=trace all run on the request thread once the
/// work is done.
class TraceContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Spans beyond this are dropped (and counted): a request that opens
  /// hundreds of spans (one per wire flush of a huge stream) keeps the
  /// first kMaxSpans and reports the overflow instead of growing.
  static constexpr uint32_t kMaxSpans = 96;

  /// Parent value of root spans. Span slot ids are 1-based.
  static constexpr uint32_t kNoParent = 0;

  TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  uint64_t trace_id() const { return trace_id_; }

  /// The trace id as 16 lower-case hex digits (log lines, JSON).
  std::string trace_id_hex() const;

  /// Milliseconds since construction.
  double ElapsedMillis() const;

  uint32_t spans_recorded() const;
  uint32_t spans_dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Records an already-completed span retroactively — e.g. queue wait,
  /// measured from an enqueue timestamp taken on another thread. Returns
  /// the 1-based slot id (0 when the buffer was full). `name` must be a
  /// string literal.
  uint32_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint32_t parent = kNoParent);

  /// \brief One completed (or still-open) span, for tests and renderers.
  struct SpanView {
    const char* name = "";
    uint32_t id = 0;        ///< 1-based slot
    uint32_t parent = 0;    ///< 0 = root
    double start_ms = 0;    ///< offset from the trace epoch
    double duration_ms = 0; ///< elapsed-so-far for still-open spans
    bool open = false;
  };

  /// Snapshot of the recorded spans in start order.
  std::vector<SpanView> Spans() const;

  /// The span tree as JSON:
  /// {"trace_id":"…","total_ms":T,"spans_dropped":D,
  ///  "spans":[{"name":"…","start_ms":S,"ms":M,"spans":[…]},…]}
  std::string ToJson() const;

  /// Flat one-line summary of the root spans for log lines:
  /// "build.seal=12.3ms warm=0.4ms".
  std::string Summary() const;

 private:
  friend class Span;

  struct SpanRecord {
    const char* name = "";
    uint32_t parent = kNoParent;
    int64_t start_us = 0;
    int64_t end_us = -1;  ///< -1 while open
  };

  /// Reserves a slot and stamps name/parent/start. 0 when full.
  uint32_t Open(const char* name, uint32_t parent);
  void Close(uint32_t slot);

  int64_t NowMicros() const;

  uint64_t trace_id_;
  Clock::time_point epoch_;
  std::atomic<uint32_t> next_{0};
  std::atomic<uint32_t> dropped_{0};
  std::array<SpanRecord, kMaxSpans> spans_;
};

/// \brief RAII span: opens in the constructor, closes in the destructor.
/// With a null trace it does nothing at all. Copying is disabled — a span
/// is a scope, not a value.
class Span {
 public:
  Span(TraceContext* trace, const char* name);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent); the destructor becomes a no-op.
  void End();

 private:
  TraceContext* trace_ = nullptr;
  uint32_t slot_ = 0;
  TraceContext* prev_trace_ = nullptr;
  uint32_t prev_span_ = 0;
};

/// Trace id of the innermost span currently open on this thread, 0 when
/// none — the logging layer stamps it onto log lines so interleaved
/// handler-pool output is attributable to requests.
uint64_t CurrentTraceId();

/// 16 lower-case hex digits of an id (shared by logs and JSON rendering).
std::string TraceIdHex(uint64_t id);

/// \brief Fixed-bucket latency histogram. Observe() is lock-free and
/// allocation-free; all accessors take relaxed snapshots, so concurrent
/// reads see a consistent-enough view for monitoring.
class LatencyHistogram {
 public:
  /// Upper bounds (inclusive, "le") in milliseconds; one implicit +Inf
  /// bucket follows. Log-spaced from 10µs to 10s — wide enough for a
  /// cache hit and a full-cube analytic scan on the same ladder.
  static constexpr std::array<double, 19> kBucketBoundsMs = {
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,   10.0,
      25.0, 50.0,  100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};

  /// Total buckets including the +Inf overflow bucket.
  static constexpr size_t kNumBuckets = kBucketBoundsMs.size() + 1;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one observation (negative values clamp to 0).
  void Observe(double ms);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Sum of observations in milliseconds (stored in integer microseconds,
  /// so concurrent Observe never loses precision to a torn double).
  double sum_ms() const {
    return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
           1000.0;
  }

  /// Non-cumulative count of bucket `i` (i == kNumBuckets-1 is +Inf).
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Estimated quantile (q in [0,1]) by linear interpolation inside the
  /// covering bucket; observations beyond the last bound report the last
  /// bound. 0 when empty.
  double Quantile(double q) const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
};

// --- Prometheus text exposition ---------------------------------------
// Each call appends to `out`. A `label` is complete key="value" pairs
// ("" for none); `help` is written verbatim.

/// The HELP and TYPE lines that open one metric family.
void AppendFamilyHeader(std::string* out, const char* name, const char* type,
                        const char* help);

/// One sample line: `name{label} value`, or `name value` without a label.
void AppendSample(std::string* out, std::string_view name,
                  std::string_view label, std::string_view value);

/// A one-sample counter family.
void AppendCounter(std::string* out, const char* name, uint64_t value,
                   const char* help);

/// A one-sample gauge family; the value prints exactly (ExactDoubleText).
void AppendGauge(std::string* out, const char* name, double value,
                 const char* help);

/// One series of a histogram family (its header written once, before the
/// first series): the cumulative _bucket samples with `le` in seconds,
/// "+Inf" last, then _sum and _count.
void AppendHistogramSeries(std::string* out, const char* name,
                           std::string_view label,
                           const LatencyHistogram& hist);

}  // namespace trace
}  // namespace scube

#endif  // SCUBE_COMMON_TRACE_H_
