// Shared plumbing for the figure/table reproduction benches.
//
// Each bench prints (a) a provenance header, (b) the same rows/series the
// paper's figure or table reports, and (c) writes a CSV into the working
// directory so the curve can be re-plotted. Durations scale with WLAN_BENCH_SECONDS
// (a multiplier), seeds with WLAN_BENCH_SEEDS, and WLAN_BENCH_FAST trims
// the sweep for smoke runs. Simulation grids fan out across the global
// par::ThreadPool; `--threads N` (or WLAN_THREADS) bounds the lanes.
#pragma once

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "par/thread_pool.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"

namespace wlan::bench {

/// Prints the driver's own peak RSS and CPU seconds (getrusage) to stderr
/// at exit; bench/run_all.sh reads this line from driver.log, so its
/// summary.csv needs no GNU time.
inline void report_rusage() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return;
  std::fflush(stdout);  // keep the line out of a half-flushed stdout line
  const double cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  std::fprintf(stderr, "[driver] max_rss_kb=%ld cpu_s=%.2f\n", ru.ru_maxrss,
               cpu_s);
}

/// Standard driver startup: parse flags (currently `--threads N`), size
/// the global pool before the first sweep builds it, install the
/// SIGINT/SIGTERM handlers that flush partial CSVs on interruption (the
/// result store itself needs no flushing — every entry is an atomic
/// rename the moment its job completes), and report resource use at exit.
inline util::Cli init(int argc, const char* const* argv) {
  util::Cli cli(argc, argv);
  util::install_shutdown_handlers();
  std::atexit(report_rusage);
  par::ThreadPool::configure_global(cli.threads(0));
  return cli;
}

inline void header(const std::string& id, const std::string& what) {
  std::printf("=== %s ===\n%s\n", id.c_str(), what.c_str());
  std::printf("(scale with WLAN_BENCH_SECONDS / WLAN_BENCH_SEEDS; "
              "WLAN_BENCH_FAST=1 for a smoke run; --threads N or "
              "WLAN_THREADS bound the sweep parallelism)\n\n");
}

/// Inclusive float grid {lo, lo+step, ...} up to hi (with the 1e-9
/// accumulation slack every figure sweep uses for its params axis).
inline std::vector<double> arange(double lo, double hi, double step) {
  std::vector<double> grid;
  for (double v = lo; v <= hi + 1e-9; v += step) grid.push_back(v);
  return grid;
}

/// Node-count grid used by Figs. 1, 3, 6, 7 (10..60 in the paper).
inline std::vector<int> node_grid() {
  if (util::bench_fast()) return {10, 40};
  return {10, 20, 30, 40, 50, 60};
}

/// Warm-up/measure windows for adaptive schemes, scaled by the env knob.
inline exp::RunOptions adaptive_options() {
  exp::RunOptions o;
  const double s = util::bench_time_scale();
  o.warmup = sim::Duration::seconds(15.0 * s);
  o.measure = sim::Duration::seconds(10.0 * s);
  return o;
}

/// Shorter windows for non-adaptive (fixed-parameter) runs.
inline exp::RunOptions fixed_options() {
  exp::RunOptions o;
  const double s = util::bench_time_scale();
  o.warmup = sim::Duration::seconds(1.0 * s);
  o.measure = sim::Duration::seconds(5.0 * s);
  return o;
}

inline int default_seeds() { return util::bench_seeds(1); }

/// Mean total throughput over `seeds` seeds.
inline double mean_mbps(const exp::ScenarioConfig& scenario,
                        const exp::SchemeConfig& scheme,
                        const exp::RunOptions& opts, int seeds) {
  return exp::run_averaged(scenario, scheme, seeds, opts).mean_mbps;
}

}  // namespace wlan::bench
