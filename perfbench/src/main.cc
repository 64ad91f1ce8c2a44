// scube_perfbench: the SCube benchmark program.
//
//   scube_perfbench --workload build|explore|stream|routed --seed N
//                   --seconds S --trace 0|1 [--out-dir DIR]
//                   [--git-sha SHA] [--src-sha SHA]
//
// Sets the workload up three times (setup_s is the median), runs its
// timed closed loop for S seconds, checks every answer, and prints a
// human-readable table followed by one JSON line:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//
// With --trace 0 the metrics are the end-to-end gate metrics; with
// --trace 1 the loop runs again with /metrics sampling, then the inputs
// are replayed layer by layer (replay.h), and the metrics are the
// per-layer ones. Exits 1 on any wrong answer, 2 on a usage or set-up
// error.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "replay.h"
#include "util.h"
#include "workloads.h"

#ifndef SCUBE_BENCH_COMPILER
#define SCUBE_BENCH_COMPILER "unknown"
#endif
#ifndef SCUBE_BENCH_BUILD_TYPE
#define SCUBE_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 3;

/// Wall and process-CPU seconds of each set-up. The gate's setup_s is the
/// CPU median: the set-up is dominated by the cube build on all cores,
/// whose wall time moved by up to 2x with other tenants' load on a shared
/// host, while the CPU it burns (the work a change can move into set-up)
/// moved by under 10%.
struct SetupTimes {
  Samples wall_s;
  Samples cpu_s;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string src_sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "scube_perfbench: %s\nusage: scube_perfbench --workload "
               "build|explore|stream|routed --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--git-sha SHA] [--src-sha SHA]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--src-sha") {
      args.src_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "build" && args.workload != "explore" &&
      args.workload != "stream" && args.workload != "routed") {
    Usage("unknown workload");
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

/// The end-to-end gate metrics of BENCHMARK.json: the ones whose spread
/// between runs stays inside their bound on a shared host (README.md).
/// The names are shared by all workloads; README.md lists what each means
/// per workload.
/// cpu_us_per_op is the median of the loop's windows (build: of its
/// publishes); stream charges CPU per 1000 rows delivered, since its
/// requests range from a 250-row page to a 13.5k-row export.
std::vector<Metric> GateMetrics(const std::string& w, const SetupTimes& setup,
                                const LoopResult& r, double rss) {
  return {
      {"setup_s", setup.cpu_s.Median(), "s", setup.cpu_s.size(),
       "CPU seconds, median of the set-ups"},
      {"peak_rss_mb", rss, "MiB", 1, "ru_maxrss"},
      {"cpu_us_per_op", r.cpu_s_per_op.Median() * 1e6, "us", r.cpu_s_per_op.size(),
       w == "build"    ? "per publish, median publish"
       : w == "stream" ? "per 1000 rows, median 0.5 s window"
                       : "per request, median 0.5 s window"},
  };
}

/// The workload's end-to-end metrics, for the table (the gate metrics
/// above are drawn from the same loop).
std::vector<Metric> NamedMetrics(const std::string& w, const SetupTimes& setup,
                                 const LoopResult& r, double rss) {
  std::vector<Metric> out = {
      {"setup_wall_s", setup.wall_s.Median(), "s", setup.wall_s.size(),
       "process start to first timed operation"},
      {"setup_s", setup.cpu_s.Median(), "s", setup.cpu_s.size(),
       "gate setup_s (CPU seconds of set-up)"},
      {"peak_rss_mb", rss, "MiB", 1, "gate peak_rss_mb"},
  };
  const double cpu_per_request =
      r.completed ? r.cpu_s * 1e6 / static_cast<double>(r.completed) : 0;
  if (w == "build") {
    out.push_back({"publish_s", r.latency_ms.Median() / 1e3, "s", r.latency_ms.size(),
                   "median publish"});
    out.push_back({"publish_max_s", r.latency_ms.Max() / 1e3, "s", r.latency_ms.size(),
                   "slowest publish"});
    out.push_back({"cpu_s_per_publish", cpu_per_request / 1e6, "s", r.completed,
                   "gate cpu_us_per_op (x1e6)"});
  } else if (w == "stream") {
    out.push_back({"stream_ttfb_p50_ms", r.ttfb_ms.Median(), "ms", r.ttfb_ms.size(),
                   ""});
    out.push_back({"stream_ttfb_p99_ms", r.ttfb_ms.Quantile(0.99), "ms",
                   r.ttfb_ms.size(), "p99 needs >= 1000 samples"});
    out.push_back({"stream_rows_per_s", static_cast<double>(r.rows) / r.wall_s,
                   "rows/s", r.completed, ""});
    out.push_back({"cpu_us_per_request", cpu_per_request, "us", r.completed, ""});
    out.push_back({"cpu_us_per_krow", r.rows ? r.cpu_s * 1e9 / static_cast<double>(r.rows) : 0,
                   "us", r.completed, "gate cpu_us_per_op"});
  } else {
    out.push_back({"query_p50_ms", r.latency_ms.Median(), "ms", r.latency_ms.size(),
                   ""});
    out.push_back({"query_p99_ms", r.latency_ms.Quantile(0.99), "ms",
                   r.latency_ms.size(), "p99 needs >= 1000 samples"});
    out.push_back({"query_qps", static_cast<double>(r.completed) / r.wall_s, "1/s",
                   r.completed, "correct answers per second"});
    out.push_back({"cpu_us_per_request", cpu_per_request, "us", r.completed,
                   "gate cpu_us_per_op"});
  }
  return out;
}

void PrintTable(const std::vector<Metric>& metrics, bool with_moves) {
  std::printf("%-36s %16s %-8s %8s  %s\n", "metric", "value", "unit", "samples",
              with_moves ? "should move" : "meaning");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6g %-8s %8llu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.note.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}";
}

void WriteResultFile(const Args& args, const std::string& host_json,
                     const std::string& result_line) {
  mkdir(args.out_dir.c_str(), 0755);
  std::string path = args.out_dir + "/result-" + args.workload + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     (args.trace ? "1" : "0") + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"host\": %s, \"result\": %s}\n", host_json.c_str(),
                 result_line.c_str());
    std::fclose(f);
  }
}

int Main(int argc, char** argv) {
  Clock::time_point process_start = Clock::now();
  Args args = ParseArgs(argc, argv);

  // Set up several times and keep the medians. The first set-up counts
  // from process start. Each set-up must publish the same cube.
  SetupTimes setup;
  std::unique_ptr<Fixture> fixture;
  bool setups_agree = true;
  uint64_t first_hash = 0;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    Clock::time_point start = i == 0 ? process_start : Clock::now();
    double cpu0 = i == 0 ? 0 : ProcessCpuSeconds();
    fixture = SetUp(args.workload, args.seed);
    setup.wall_s.Add(SecondsSince(start));
    setup.cpu_s.Add(ProcessCpuSeconds() - cpu0);
    if (i == 0) first_hash = fixture->cube_hash;
    setups_agree = setups_agree && fixture->cube_hash == first_hash;
  }

  LoopResult timed = RunLoop(args.workload, fixture.get(), args.seed, args.seconds,
                             /*sample_metrics=*/false);
  double rss = PeakRssMiB();

  char host[512];
  std::snprintf(host, sizeof(host),
                "{\"git_sha\": %s, \"src_sha256\": %s, \"nproc\": %u, "
                "\"compiler\": %s, \"build_type\": %s, \"cpu_steal_share\": %s}",
                JsonQuote(args.git_sha).c_str(), JsonQuote(args.src_sha).c_str(),
                std::thread::hardware_concurrency(),
                JsonQuote(SCUBE_BENCH_COMPILER).c_str(),
                JsonQuote(SCUBE_BENCH_BUILD_TYPE).c_str(),
                JsonNumber(timed.steal).c_str());
  std::printf("# scube perfbench  workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# host %s\n", host);
  std::printf("# cube hash %016llx (same in all %d set-ups: %s)\n",
              static_cast<unsigned long long>(first_hash), kSetups,
              setups_agree ? "yes" : "NO");
  std::printf("# attempted %llu  failed %llu  wrong %llu  loop %.3f s  steal %.3f\n",
              static_cast<unsigned long long>(timed.attempted),
              static_cast<unsigned long long>(timed.failed),
              static_cast<unsigned long long>(timed.wrong), timed.wall_s, timed.steal);
  if (!timed.detail.empty()) std::printf("# first failure: %s\n", timed.detail.c_str());

  std::vector<Metric> gate = GateMetrics(args.workload, setup, timed, rss);
  bool correct = timed.wrong == 0 && setups_agree && timed.completed > 0;
  std::vector<Metric> reported = gate;
  uint64_t attempted = timed.attempted;
  uint64_t failed = timed.failed;

  if (args.trace) {
    // The same load again from the same starting state: caches emptied
    // and re-warmed as in set-up, then /metrics sampled alongside.
    ClearCaches(fixture.get());
    WarmUp(fixture.get(), args.seed);
    LoopResult traced = RunLoop(args.workload, fixture.get(), args.seed,
                                args.seconds, /*sample_metrics=*/true);
    correct = correct && traced.wrong == 0;
    attempted += traced.attempted;
    failed += traced.failed;
    SpanLog spans;
    ReplayOutput replay = RunReplay(
        ReplayInput{args.workload, args.seed, fixture.get(), &timed, &traced}, &spans);
    correct = correct && replay.correct;
    if (!replay.detail.empty()) std::printf("# replay: %s\n", replay.detail.c_str());
    std::printf("# untraced end-to-end (tracing off):\n");
    PrintTable(NamedMetrics(args.workload, setup, timed, rss), false);
    std::printf("# per-layer (sequential replay; load-dependent rows from the traced load):\n");
    PrintTable(replay.layers, true);
    std::printf("# reconciliation: layer self times %.6g vs untraced %.6g %s -> "
                "unaccounted share %.4f\n",
                replay.layer_sum, replay.end_to_end, replay.unit.c_str(),
                replay.unaccounted_share);
    auto p50 = [&](const LoopResult& r) {
      return (args.workload == "stream" ? r.ttfb_ms : r.latency_ms).Median();
    };
    std::printf("# tracing overhead: %.4f of the untraced p50 (traced p50 %.6g ms, "
                "untraced %.6g ms)\n",
                replay.overhead_share, p50(traced), p50(timed));
    mkdir(args.out_dir.c_str(), 0755);
    std::string span_path = args.out_dir + "/spans-" + args.workload + "-seed" +
                            std::to_string(args.seed) + ".json";
    if (spans.WriteJson(span_path)) {
      std::printf("# %zu spans written to %s\n", spans.size(), span_path.c_str());
    }
    reported = replay.layers;
  } else {
    PrintTable(NamedMetrics(args.workload, setup, timed, rss), false);
    std::printf("# gate metrics (BENCHMARK.json end_to_end):\n");
    PrintTable(gate, false);
  }

  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": " + MetricsJson(reported) + "}";
  WriteResultFile(args, host, line);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
