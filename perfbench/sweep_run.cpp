// sweep_resume: a fig04-style grid of short fixed-p hidden-node jobs run
// through exp::run_sweep on a 2-lane pool with the run cache and the sweep
// journal on, first cold, then resumed from the journal. One run_sweep
// call per grid point (the way run_averaged drives one point), so each
// call is one timed slice:
//
//   cold_pass   ── point × P   run_sweep: simulate, cache store, append
//   resume_pass ── point × P   run_sweep: journal replay, fold
//   bare_pass   ── point × P   (traced run) the cold pass, persistence off
//   entries                    (traced run) time_entry_ops on the
//                              results the first cold pass journaled
//
// Checks: no job error; the resume pass replays every job and folds
// byte-identical to the cold pass; every cold pass folds identically.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "bench.hpp"
#include "exp/run_cache.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_journal.hpp"
#include "obs/collect.hpp"
#include "par/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace wlan;
namespace fs = std::filesystem;

constexpr int kLanes = 2;
constexpr int kPlacements = 4;      // hidden-node scenarios per grid
constexpr int kSeedsPerPoint = 10;  // jobs per run_sweep call
constexpr double kLogPFrom = -7.0;  // attempt-probability axis, log(p)
constexpr double kLogPStep = 0.2;
constexpr int kLogPCount = 25;
constexpr std::size_t kSetupEvery = 2;  // grid points per set-up sample

exp::RunOptions job_options() {
  exp::RunOptions o;
  o.warmup = sim::Duration::seconds(0.02);
  o.measure = sim::Duration::seconds(0.13);
  return o;
}

/// The grid, one SweepSpec per point: placements × log(p) values, each
/// averaged over kSeedsPerPoint seeds. --seed picks the placements.
std::vector<exp::SweepSpec> make_grid(std::uint64_t seed) {
  std::vector<exp::SweepSpec> grid;
  for (int k = 0; k < kPlacements; ++k) {
    const auto scenario = exp::ScenarioConfig::hidden(
        20, 16.0, seed * 1000 + static_cast<std::uint64_t>(k) * 100);
    for (int i = 0; i < kLogPCount; ++i) {
      const double p = std::exp(kLogPFrom + kLogPStep * i);
      exp::SweepSpec spec = exp::SweepSpec::single(
          scenario, exp::SchemeConfig::fixed_p_persistent(p), job_options(),
          kSeedsPerPoint);
      spec.keep_runs = false;
      spec.job_retries = 0;
      spec.job_backoff_ms = 0;
      spec.processes = 1;
      grid.push_back(std::move(spec));
    }
  }
  return grid;
}

/// What a pass folded: per point, the averaged result's bytes and the
/// per-run counter totals. Compared exactly between passes.
struct Fold {
  std::vector<exp::AveragedResult> averaged;
  std::vector<obs::MetricsRegistry> counters;
  double goodput_sum = 0.0;
};

obs::MetricsRegistry fold_counters(const obs::MetricsRegistry& reg) {
  obs::MetricsRegistry out;
  for (const auto& m : reg.entries())
    if (!obs::is_process_cumulative_metric(m.name) &&
        m.name.rfind("sweep.", 0) != 0)
      out.set(m.name, m.value);
  return out;
}

bool same_bytes(const exp::AveragedResult& a, const exp::AveragedResult& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void set_persistence(const std::string& cache, const std::string& journal) {
  if (cache.empty()) {
    unsetenv("WLAN_RUN_CACHE");
    unsetenv("WLAN_SWEEP_JOURNAL");
  } else {
    setenv("WLAN_RUN_CACHE", cache.c_str(), 1);
    setenv("WLAN_SWEEP_JOURNAL", journal.c_str(), 1);
  }
}

void settle_filesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

/// Runs every grid point under a root span; counts jobs and job errors.
/// `expect_replayed` makes it a resume pass: every job must come from the
/// journal.
Fold run_pass(const std::vector<exp::SweepSpec>& grid, par::ThreadPool& pool,
              const std::string& root, bool expect_replayed, std::uint64_t seed,
              Report& report) {
  Fold fold;
  const int pass = report.spans.open(root);
  Calibrator cal(report.spans, pass);
  std::size_t replayed = 0, jobs = 0, errors = 0;
  for (const auto& spec : grid) {
    // Set-up samples spread over the cold passes (one job's set-up).
    if (!expect_replayed && fold.averaged.size() % kSetupEvery == 0)
      sweep_job_setup(seed, report);
    cal.maybe();
    const int sp = report.spans.open("point", pass);
    const exp::SweepResult r = exp::run_sweep(spec, &pool);
    report.spans.close(sp, spec.seeds);
    jobs += static_cast<std::size_t>(spec.seeds);
    errors += r.errors.size();
    replayed += static_cast<std::size_t>(r.metrics.get("sweep.jobs_replayed"));
    fold.averaged.push_back(r.points.at(0).averaged);
    fold.counters.push_back(fold_counters(r.metrics));
    fold.goodput_sum += r.points.at(0).averaged.mean_mbps;
  }
  cal.force();
  report.spans.close(pass, static_cast<std::int64_t>(jobs));
  report.attempted += static_cast<std::int64_t>(jobs);
  report.failed += static_cast<std::int64_t>(errors);
  report.check(root + " job errors", errors == 0,
               std::to_string(errors) + " of " + std::to_string(jobs));
  if (expect_replayed) {
    report.check(root + " replayed every job", replayed == jobs,
                 std::to_string(replayed) + " of " + std::to_string(jobs));
    if (replayed != jobs) report.failed += static_cast<std::int64_t>(jobs - replayed);
  }
  return fold;
}

/// Byte-identity of two folds; a differing point counts its jobs failed.
void compare_folds(const std::string& what, const Fold& got, const Fold& ref,
                   int jobs_per_point, Report& report) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < ref.averaged.size(); ++i)
    if (!same_bytes(got.averaged[i], ref.averaged[i]) ||
        !(got.counters[i] == ref.counters[i]))
      ++bad;
  report.check(what, bad == 0,
               bad == 0 ? "byte-identical"
                        : std::to_string(bad) + " points differ");
  report.failed += static_cast<std::int64_t>(bad) * jobs_per_point;
}

/// The cold pass's results, read back from its journal (untimed).
void collect_results(const std::vector<exp::SweepSpec>& grid,
                     const std::string& journal_base,
                     std::vector<std::uint64_t>& keys,
                     std::vector<exp::RunResult>& results) {
  for (const auto& spec : grid) {
    std::vector<std::uint64_t> point_keys;
    for (const auto& j : exp::expand(spec))
      point_keys.push_back(
          exp::run_cache::key_hash(j.scenario, j.scheme, spec.options));
    const std::string dir = exp::sweep_journal::sweep_directory(
        journal_base, exp::sweep_journal::sweep_fingerprint(point_keys));
    std::vector<exp::RunResult> point(point_keys.size());
    std::vector<char> done(point_keys.size(), 0);
    exp::sweep_journal::replay(dir, point_keys, point, done);
    keys.insert(keys.end(), point_keys.begin(), point_keys.end());
    for (auto& r : point) results.push_back(std::move(r));
  }
}

}  // namespace

void run_sweep_workload(const Options& opt, Report& report) {
  const std::vector<exp::SweepSpec> grid = make_grid(opt.seed);
  report.info["lanes"] = std::to_string(kLanes);
  report.values["sweep.points"] = static_cast<double>(grid.size());
  report.values["sweep.jobs_per_pass"] =
      static_cast<double>(grid.size() * kSeedsPerPoint);

  const ScratchDir scratch_dir("sweep");
  const std::string& scratch = scratch_dir.path();

  if (opt.trace) run_sweep_job_shape(opt, report);

  par::ThreadPool pool(kLanes);
  Fold first;
  bool have_first = false;
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  int n = 0;
  do {
    // Each pass pair starts from a settled filesystem: the previous pass's
    // (or process's) writes and deletions are flushed first, untimed.
    // Without this, later passes ran up to 2.5x slower than the first.
    settle_filesystem(scratch);
    const std::string base = scratch + "/pass" + std::to_string(n);
    set_persistence(base + "/cache", base + "/journal");
    const double cpu0 = process_cpu_s();
    const Fold cold = run_pass(grid, pool, "cold_pass", false, opt.seed, report);
    const double cpu1 = process_cpu_s();
    const Fold resumed = run_pass(grid, pool, "resume_pass", true, opt.seed, report);
    report.add_sample("cold_cpu_s", cpu1 - cpu0);
    report.add_sample("pass_cpu_s", process_cpu_s() - cpu0);
    compare_folds("resume pass == cold pass", resumed, cold, kSeedsPerPoint,
                  report);
    if (have_first) {
      compare_folds("cold pass repeats", cold, first, kSeedsPerPoint, report);
    } else {
      first = cold;
      have_first = true;
      report.values["goodput_mbps"] =
          cold.goodput_sum / static_cast<double>(grid.size());
      for (const auto& reg : cold.counters)
        for (const auto& m : reg.entries()) report.values[m.name] += m.value;
      if (opt.trace) {
        std::vector<std::uint64_t> keys;
        std::vector<exp::RunResult> results;
        collect_results(grid, base + "/journal", keys, results);
        time_entry_ops(keys, results, scratch + "/entries", report);
      }
    }
    if (opt.trace) {
      set_persistence("", "");
      const Fold bare = run_pass(grid, pool, "bare_pass", false, opt.seed, report);
      compare_folds("persistence off == on", bare, first, kSeedsPerPoint, report);
    }
    std::error_code ec;
    fs::remove_all(base, ec);
    ++n;
  } while (wall_ns() < deadline);
  set_persistence("", "");
}

}  // namespace perfbench
