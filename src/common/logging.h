// Minimal logger: every message goes to stderr, one line each, prefixed
// with its level; thread-safe.

#ifndef SCUBE_COMMON_LOGGING_H_
#define SCUBE_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace scube {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Wall-clock timestamp with millisecond precision, UTC:
/// "2026-08-08T14:03:21.042Z". Shared by log lines and the slow-query
/// log's JSON records.
std::string FormatWallTimestampMillis();

/// Small sequential id of the calling thread (1, 2, 3, … in first-log
/// order) — readable request interleaving without 16-digit pthread ids.
int CurrentThreadLogId();

namespace internal {

/// Stream-style log statement collector; emits on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

#define SCUBE_LOG(level)                                             \
  ::scube::internal::LogMessage(::scube::LogLevel::k##level, __FILE__, \
                                __LINE__)

/// Fatal-on-false invariant check, active in all build types.
#define SCUBE_CHECK(cond)                                                \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::scube::internal::CheckFailed(#cond, __FILE__, __LINE__);         \
    }                                                                    \
  } while (false)

namespace internal {
[[noreturn]] void CheckFailed(const char* expr, const char* file, int line);
}  // namespace internal

}  // namespace scube

#endif  // SCUBE_COMMON_LOGGING_H_
