// Wall-clock timing for pipeline stage reporting and benches.

#ifndef SCUBE_COMMON_TIMER_H_
#define SCUBE_COMMON_TIMER_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace scube {

/// \brief Monotonic stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// \brief Named per-stage timing record, e.g. for the pipeline report.
class StageTimings {
 public:
  /// Records `seconds` for stage `name` (stages keep insertion order).
  void Record(std::string name, double seconds) {
    stages_.emplace_back(std::move(name), seconds);
  }

  const std::vector<std::pair<std::string, double>>& stages() const {
    return stages_;
  }

 private:
  std::vector<std::pair<std::string, double>> stages_;
};

}  // namespace scube

#endif  // SCUBE_COMMON_TIMER_H_
