// The traced run's sequential replay: the workload seed's inputs are
// replayed in-process through each layer's public functions, one call at
// a time, with a span around every call. It yields the per-layer metrics;
// the load-dependent ones (queue depth, router wait, cache behaviour
// under load) come from the traced load run when the workload has that
// load.

#ifndef SCUBE_PERFBENCH_REPLAY_H_
#define SCUBE_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util.h"
#include "workloads.h"

namespace perfbench {

struct ReplayInput {
  std::string workload;
  uint64_t seed = 0;
  Fixture* fixture = nullptr;
  const LoopResult* untraced = nullptr;  ///< the timed loop, tracing off
  const LoopResult* traced = nullptr;    ///< the same load, with sampling
};

struct ReplayOutput {
  std::vector<Metric> layers;  ///< every per-layer metric, in table order
  double layer_sum = 0;        ///< summed per-layer self time per operation
  double end_to_end = 0;       ///< the untraced figure it is compared with
  std::string unit;            ///< unit of the two figures above
  double unaccounted_share = 0;
  double overhead_share = 0;   ///< (traced - untraced) / untraced, p50 latency
  bool correct = true;         ///< replayed cube equals the published one
  std::string detail;
};

ReplayOutput RunReplay(const ReplayInput& input, SpanLog* spans);

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_REPLAY_H_
