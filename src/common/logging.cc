#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/sync.h"
#include "common/trace.h"

namespace scube {

namespace {
sync::Mutex g_sink_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

std::string FormatWallTimestampMillis() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

int CurrentThreadLogId() {
  static std::atomic<int> next{1};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  // "[ts LEVEL tN file:line] " — and, when a span is open on this thread,
  // the request's trace id, so pool-interleaved lines are attributable.
  stream_ << "[" << FormatWallTimestampMillis() << " " << LevelName(level)
          << " t" << CurrentThreadLogId() << " " << base << ":" << line;
  if (const uint64_t trace_id = trace::CurrentTraceId()) {
    stream_ << " trace=" << trace::TraceIdHex(trace_id);
  }
  stream_ << "] ";
}

LogMessage::~LogMessage() {
  sync::MutexLock lock(&g_sink_mutex);
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

void CheckFailed(const char* expr, const char* file, int line) {
  std::fprintf(stderr, "[CHECK FAILED %s:%d] %s\n", file, line, expr);
  std::abort();
}

}  // namespace internal

}  // namespace scube
