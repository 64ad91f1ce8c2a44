// EFF-CUBE: SegregationDataCubeBuilder cost and build parallelism.
//
// Cube construction is the dominant cost of segregation discovery
// (paper §4): frequent-itemset mining plus, per candidate cell, a walk of
// its minority cover (dense item bitsets ANDed over the context's words)
// into per-unit counts and the six indexes, then Seal()'s index
// construction at publish time. The fill and seal phases decompose into
// independent units (one context per worker, one index structure per
// task), so this bench sweeps thread counts over the standard synthetic
// workload and reports per-phase wall times and speedups, verifying along
// the way that every thread count produces the identical cube.
//
// Run:  ./bench_cube_builder [--quick] [--threads 1,2,4] [--scale S]
//                            [--min-support N] [--reps R]
//
//   --quick          small workload, single rep (the CI smoke mode)
//   --threads LIST   comma-separated thread counts (default 1,2,4)
//   --scale S        synthetic scenario scale (default 0.004)
//   --min-support N  builder minimum support (default 20)
//   --reps R         repetitions per configuration, best-of (default 3)
//
// Prints the table and writes no file; exits 1 when a build fails or a
// thread count builds a different cube.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "cube/builder.h"
#include "cube/cube_view.h"
#include "datagen/scenarios.h"
#include "scube/pipeline.h"

namespace {

using namespace scube;

relational::Table MakeFinalTable(double scale) {
  auto s = datagen::GenerateScenario(datagen::ItalianConfig(scale));
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  config.cube.min_support = 1 << 30;  // cube content irrelevant here
  auto r = pipeline::RunPipeline(s->inputs, config);
  if (!r.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r->final_table;
}

struct PhaseTimes {
  double mining = 0;
  double fill = 0;
  double seal = 0;
  double combined() const { return fill + seal; }
};

std::vector<size_t> ParseThreadList(const char* arg) {
  std::vector<size_t> out;
  for (const std::string& token : Split(arg, ',')) {
    size_t t = static_cast<size_t>(std::strtoul(token.c_str(), nullptr, 10));
    if (t == 0) {
      std::fprintf(stderr, "--threads entries must be >= 1\n");
      std::exit(1);
    }
    out.push_back(t);
  }
  if (out.empty()) out = {1, 2, 4};
  // Speedups (and the determinism reference) are defined against the
  // sequential run, so one always leads the sweep.
  if (out.front() != 1) out.insert(out.begin(), 1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  double scale = 0.004;
  uint64_t min_support = 20;
  int reps = 3;
  std::vector<size_t> thread_counts = {1, 2, 4};

  auto next = [&](int* i, const char* flag) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      std::exit(1);
    }
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      thread_counts = ParseThreadList(next(&i, "--threads"));
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale = std::atof(next(&i, "--scale"));
    } else if (std::strcmp(argv[i], "--min-support") == 0) {
      min_support = std::strtoull(next(&i, "--min-support"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::atoi(next(&i, "--reps"));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  if (quick) {
    scale = std::min(scale, 0.002);
    reps = 1;
  }
  if (reps < 1) reps = 1;

  std::printf("Generating the standard synthetic workload (scale %.4f)...\n",
              scale);
  relational::Table table = MakeFinalTable(scale);
  auto encoded = relational::EncodeForAnalysis(table);
  if (!encoded.ok()) {
    std::fprintf(stderr, "encode failed: %s\n",
                 encoded.status().ToString().c_str());
    return 1;
  }
  std::printf("  rows=%zu\n", table.NumRows());

  cube::CubeBuilderOptions opts;
  opts.min_support = min_support;
  opts.mode = fpm::MineMode::kAll;
  opts.max_sa_items = 2;
  opts.max_ca_items = 2;

  // Per thread count: best-of-`reps` build + seal, plus a determinism
  // check of the cube against the sequential reference.
  std::vector<PhaseTimes> best(thread_counts.size());
  size_t cells = 0;
  std::string reference_csv;
  // The sequential first rep doubles as the phase-trace sample: the same
  // build.mine/build.group/build.fill/build.seal span names scubed's
  // PublishAndWarm logs, so bench and server numbers line up by name.
  trace::TraceContext phase_trace;
  for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
    size_t threads = thread_counts[ti];
    opts.num_threads = threads;
    PhaseTimes bt;
    for (int rep = 0; rep < reps; ++rep) {
      opts.trace = (ti == 0 && rep == 0) ? &phase_trace : nullptr;
      cube::CubeBuildStats stats;
      auto built = cube::BuildSegregationCube(*encoded, opts, &stats);
      if (!built.ok()) {
        std::fprintf(stderr, "build failed: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      cells = built->NumCells();
      WallTimer seal_timer;
      trace::Span seal_span(opts.trace, "build.seal");
      cube::CubeView view = std::move(*built).Seal(threads);
      seal_span.End();
      double seal_secs = seal_timer.Seconds();
      if (view.NumCells() != cells) {
        std::fprintf(stderr, "seal lost cells\n");
        return 1;
      }
      if (rep == 0) {
        std::string csv = view.ToCsv();
        if (ti == 0) {
          reference_csv = std::move(csv);
        } else if (csv != reference_csv) {
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: %zu-thread cube differs "
                       "from the %zu-thread reference\n",
                       threads, thread_counts[0]);
          return 1;
        }
      }
      if (rep == 0 || stats.seconds_filling < bt.fill) {
        bt.fill = stats.seconds_filling;
      }
      if (rep == 0 || seal_secs < bt.seal) bt.seal = seal_secs;
      if (rep == 0 || stats.seconds_mining < bt.mining) {
        bt.mining = stats.seconds_mining;
      }
    }
    best[ti] = bt;
  }

  const PhaseTimes& base = best[0];
  std::printf("\ncube: %zu cells, min_support=%llu, mode=all "
              "(mining stays sequential: %.1f ms)\n",
              cells, static_cast<unsigned long long>(min_support),
              base.mining * 1e3);
  std::printf("%8s %12s %12s %14s %10s %10s %10s\n", "threads", "fill(ms)",
              "seal(ms)", "fill+seal(ms)", "fill(x)", "seal(x)", "both(x)");
  for (size_t ti = 0; ti < thread_counts.size(); ++ti) {
    const PhaseTimes& bt = best[ti];
    double fx = bt.fill > 0 ? base.fill / bt.fill : 1.0;
    double sx = bt.seal > 0 ? base.seal / bt.seal : 1.0;
    double cx = bt.combined() > 0 ? base.combined() / bt.combined() : 1.0;
    std::printf("%8zu %12.2f %12.2f %14.2f %9.2fx %9.2fx %9.2fx\n",
                thread_counts[ti], bt.fill * 1e3, bt.seal * 1e3,
                bt.combined() * 1e3, fx, sx, cx);
  }
  std::printf("\ndeterminism: all thread counts produced the identical "
              "cube (%zu cells)\n", cells);
  std::printf("phase trace (sequential rep): %s\n",
              phase_trace.Summary().c_str());
  return 0;
}
