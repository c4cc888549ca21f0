// Crash-safety suite for the checkpointed sweep engine: journal resume
// byte-identity (threads 1 and 4), deterministic fault injection
// (throw / watchdog-timeout / corrupt-entry), retry/backoff semantics,
// and the exp.fault.* counter surface.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "exp/fault.hpp"
#include "exp/run_cache.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "exp/sweep_journal.hpp"
#include "obs/collect.hpp"
#include "par/thread_pool.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::FaultPlan;
using exp::JobError;
using exp::ScenarioConfig;
using exp::SchemeConfig;
using exp::SweepResult;
using exp::SweepSpec;
namespace sj = exp::sweep_journal;

/// Unique per-test journal directory, removed on destruction; points
/// WLAN_SWEEP_JOURNAL at itself.
struct JournalDirGuard {
  std::filesystem::path dir;
  explicit JournalDirGuard(const char* tag) {
    dir = std::filesystem::temp_directory_path() /
          (std::string("wlan_sweep_journal_") + tag);
    std::filesystem::remove_all(dir);
    ::setenv("WLAN_SWEEP_JOURNAL", dir.c_str(), 1);
    exp::reset_fault_stats();
  }
  ~JournalDirGuard() {
    ::unsetenv("WLAN_SWEEP_JOURNAL");
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

SweepSpec small_grid() {
  SweepSpec spec;
  spec.scenarios = {ScenarioConfig::connected(3, 1),
                    ScenarioConfig::connected(4, 1)};
  spec.schemes = {SchemeConfig::standard(),
                  SchemeConfig::fixed_p_persistent(0.05)};
  spec.seeds = 2;
  spec.options.warmup = sim::Duration::zero();
  spec.options.measure = sim::Duration::seconds(0.2);
  spec.job_retries = 0;
  spec.job_backoff_ms = 0;
  return spec;
}

/// Content hash over everything a sweep's consumer reads: every folded
/// average and every per-seed scalar, as raw double bits. Two sweeps with
/// equal hashes produced byte-identical output.
std::uint64_t result_hash(const SweepResult& r) {
  util::Fnv1a h;
  h.mix_u64(r.points.size());
  for (const auto& pt : r.points) {
    h.mix_double(pt.averaged.mean_mbps);
    h.mix_double(pt.averaged.min_mbps);
    h.mix_double(pt.averaged.max_mbps);
    h.mix_double(pt.averaged.mean_idle_slots);
    h.mix_double(pt.averaged.mean_delay_s);
    h.mix_double(pt.averaged.mean_drop_rate);
    h.mix_u64(pt.runs.size());
    for (const auto& run : pt.runs) {
      h.mix_double(run.total_mbps);
      h.mix_double(run.ap_avg_idle_slots);
      h.mix_u64(run.successes);
      h.mix_u64(run.failures);
      for (double v : run.per_station_mbps) h.mix_double(v);
    }
  }
  return h.digest();
}

TEST(SweepJournal, DisabledWithoutEnvironment) {
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  ::unsetenv("WLAN_RUN_CACHE");
  EXPECT_TRUE(exp::run_cache::directory().empty());
}

TEST(SweepJournal, JournalDirectoryTakesPrecedenceAsTheStore) {
  ::setenv("WLAN_RUN_CACHE", "/cache_dir", 1);
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  EXPECT_EQ(exp::run_cache::directory(), "/cache_dir");
  ::setenv("WLAN_SWEEP_JOURNAL", "/journal_dir", 1);
  EXPECT_EQ(exp::run_cache::directory(), "/journal_dir");
  // A sweep's journal is the store itself, not a per-sweep subdirectory.
  EXPECT_EQ(sj::sweep_directory("/journal_dir", 42), "/journal_dir");
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  ::unsetenv("WLAN_RUN_CACHE");
}

/// Regular files under `dir` (entries, temp and quarantined files alike).
std::size_t count_files(const std::filesystem::path& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec))
    n += e.is_regular_file();
  return n;
}

TEST(SweepJournal, FreshJobWritesOneEntryAndAReplayWritesNone) {
  // Host-free persistence gate: a cold sweep of N jobs makes exactly N
  // store lookups and leaves exactly N entry files; a rerun creates no
  // file, writes nothing and replays all N with the fresh run's metrics.
  JournalDirGuard guard("one_entry");
  SweepSpec spec = small_grid();
  const std::size_t n = exp::expand(spec).size();
  par::ThreadPool pool(2);
  exp::run_cache::reset_stats();
  const SweepResult cold = exp::run_sweep(spec, &pool);
  ASSERT_TRUE(cold.ok());
  const auto after_cold = exp::run_cache::stats();
  EXPECT_EQ(after_cold.misses, n);
  EXPECT_EQ(after_cold.hits, 0u);
  EXPECT_EQ(after_cold.stores, n);
  EXPECT_EQ(exp::fault_stats().journal_appends, n);
  EXPECT_EQ(count_files(guard.dir), n);

  const SweepResult warm = exp::run_sweep(spec, &pool);
  const auto after_warm = exp::run_cache::stats();
  EXPECT_EQ(after_warm.hits, n);
  EXPECT_EQ(after_warm.misses, n);
  EXPECT_EQ(after_warm.stores, n);
  EXPECT_EQ(exp::fault_stats().journal_appends, n);
  EXPECT_EQ(exp::fault_stats().journal_replayed, n);
  EXPECT_EQ(warm.metrics.get("sweep.jobs_replayed"), static_cast<double>(n));
  EXPECT_EQ(count_files(guard.dir), n);

  for (std::size_t p = 0; p < cold.points.size(); ++p) {
    ASSERT_EQ(cold.points[p].runs.size(), warm.points[p].runs.size());
    for (std::size_t s = 0; s < cold.points[p].runs.size(); ++s) {
      obs::MetricsRegistry filtered;
      for (const auto& m : cold.points[p].runs[s].metrics.entries())
        if (!obs::is_process_cumulative_metric(m.name))
          filtered.set(m.name, m.value);
      EXPECT_GT(filtered.entries().size(), 0u);
      EXPECT_TRUE(warm.points[p].runs[s].metrics == filtered)
          << "point " << p << " seed " << s;
    }
  }
}

TEST(SweepJournal, FingerprintIsSensitiveToJobListAndOrder) {
  const std::uint64_t a = sj::sweep_fingerprint({1, 2, 3});
  EXPECT_EQ(a, sj::sweep_fingerprint({1, 2, 3}));  // stable
  EXPECT_NE(a, sj::sweep_fingerprint({1, 2}));
  EXPECT_NE(a, sj::sweep_fingerprint({3, 2, 1}));
  EXPECT_NE(a, sj::sweep_fingerprint({1, 2, 4}));
}

TEST(SweepJournal, CompletedSweepJournalsEveryJob) {
  JournalDirGuard guard("complete");
  SweepSpec spec = small_grid();
  par::ThreadPool pool(2);
  const SweepResult r = exp::run_sweep(spec, &pool);
  EXPECT_TRUE(r.ok());
  const auto fs = exp::fault_stats();
  EXPECT_EQ(fs.journal_appends, 8u);  // 2 x 2 x 2 seeds
  EXPECT_EQ(fs.journal_replayed, 0u);

  // Re-running the same sweep replays everything and simulates nothing.
  const SweepResult again = exp::run_sweep(spec, &pool);
  EXPECT_EQ(exp::fault_stats().journal_replayed, 8u);
  EXPECT_EQ(result_hash(r), result_hash(again));
}

TEST(SweepJournal, InterruptedSweepResumesByteIdentically) {
  // The reference: the same grid run without a journal.
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  SweepSpec spec = small_grid();
  par::ThreadPool pool(2);
  const std::uint64_t reference = result_hash(exp::run_sweep(spec, &pool));

  JournalDirGuard guard("resume");
  // "Crash" partway: job 5 throws on every attempt, so the first pass
  // completes 7 jobs and journals them — the surviving on-disk state of a
  // killed process (each entry is an independent atomic rename, so a real
  // SIGKILL leaves exactly a prefix-complete subset like this one).
  FaultPlan plan;
  plan.sites.push_back({/*job_index=*/5, FaultPlan::Action::kThrow,
                        /*times=*/1000});
  {
    exp::testing::FaultPlanGuard armed(plan);
    const SweepResult first = exp::run_sweep(spec, &pool);
    ASSERT_EQ(first.errors.size(), 1u);
    EXPECT_EQ(exp::fault_stats().journal_appends, 7u);
  }

  // Resume: 7 jobs replay, only job 5 simulates; output must be
  // byte-identical to the never-interrupted reference.
  exp::reset_fault_stats();
  const SweepResult resumed = exp::run_sweep(spec, &pool);
  EXPECT_TRUE(resumed.ok());
  const auto fs = exp::fault_stats();
  EXPECT_EQ(fs.journal_replayed, 7u);
  EXPECT_EQ(fs.journal_appends, 1u);
  EXPECT_EQ(result_hash(resumed), reference);
}

TEST(SweepJournal, RandomizedKillResumeDifferentialAtBothThreadCounts) {
  // Randomized differential: fail a random subset of jobs on pass 1 (the
  // deterministic stand-in for a mid-sweep kill), resume on pass 2, and
  // require byte-identity with an uninterrupted run — at 1 and 4 lanes.
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  SweepSpec spec = small_grid();
  par::ThreadPool serial(1);
  const std::uint64_t reference =
      result_hash(exp::run_sweep(spec, &serial));

  std::mt19937 rng(20260807);
  for (const int threads : {1, 4}) {
    par::ThreadPool pool(threads);
    for (int trial = 0; trial < 3; ++trial) {
      const std::string tag =
          "rand_t" + std::to_string(threads) + "_" + std::to_string(trial);
      JournalDirGuard guard(tag.c_str());
      FaultPlan plan;
      for (std::size_t j = 0; j < 8; ++j)
        if (rng() % 2 == 0)
          plan.sites.push_back({j, FaultPlan::Action::kThrow, 1000});
      {
        exp::testing::FaultPlanGuard armed(plan);
        exp::run_sweep(spec, &pool);
      }
      const SweepResult resumed = exp::run_sweep(spec, &pool);
      EXPECT_TRUE(resumed.ok());
      EXPECT_EQ(result_hash(resumed), reference)
          << "threads=" << threads << " trial=" << trial;
    }
  }
}

TEST(SweepJournal, CorruptEntryIsQuarantinedAndRecomputed) {
  JournalDirGuard guard("corrupt");
  SweepSpec spec = small_grid();
  par::ThreadPool pool(2);

  // Pass 1 journals all 8 entries, but job 3's entry is corrupted on disk
  // (a flipped payload byte — what bit rot or a torn-but-renamed write
  // would leave).
  FaultPlan plan;
  plan.sites.push_back({3, FaultPlan::Action::kCorruptJournalEntry, 1});
  std::uint64_t clean_hash = 0;
  {
    exp::testing::FaultPlanGuard armed(plan);
    clean_hash = result_hash(exp::run_sweep(spec, &pool));
  }
  EXPECT_EQ(exp::fault_stats().journal_appends, 8u);

  // Resume: the checksum catches the corruption, quarantines the entry,
  // and job 3 recomputes — same bytes out.
  exp::reset_fault_stats();
  const SweepResult resumed = exp::run_sweep(spec, &pool);
  const auto fs = exp::fault_stats();
  EXPECT_EQ(fs.journal_corrupt, 1u);
  EXPECT_EQ(fs.journal_replayed, 7u);
  EXPECT_EQ(fs.journal_appends, 1u);  // only the recomputed job re-journals
  EXPECT_TRUE(resumed.ok());
  EXPECT_EQ(result_hash(resumed), clean_hash);

  // The quarantined bytes survive for inspection.
  bool found = false;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(guard.dir))
    if (e.path().string().find(".quarantined.") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

TEST(SweepJournal, SeriesRunsBypassTheJournal) {
  JournalDirGuard guard("series");
  SweepSpec spec = small_grid();
  spec.options.record_series = true;
  spec.options.sample_period = sim::Duration::seconds(0.05);
  par::ThreadPool pool(2);
  exp::run_sweep(spec, &pool);
  const auto fs = exp::fault_stats();
  EXPECT_EQ(fs.journal_appends, 0u);
  EXPECT_FALSE(std::filesystem::exists(guard.dir));
}

TEST(SweepFault, TransientFailureIsAbsorbedByARetry) {
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  exp::reset_fault_stats();
  SweepSpec spec = small_grid();
  spec.job_retries = 2;
  FaultPlan plan;
  // Job 2 fails twice, then its third attempt succeeds.
  plan.sites.push_back({2, FaultPlan::Action::kThrow, 2});
  par::ThreadPool pool(2);

  par::ThreadPool serial(1);
  const std::uint64_t reference =
      result_hash(exp::run_sweep(spec, &serial));

  exp::reset_fault_stats();
  exp::testing::FaultPlanGuard armed(plan);
  const SweepResult r = exp::run_sweep(spec, &pool);
  EXPECT_TRUE(r.ok());  // absorbed — no JobError
  const auto fs = exp::fault_stats();
  EXPECT_EQ(fs.job_exceptions, 2u);
  EXPECT_EQ(fs.job_retries, 2u);
  EXPECT_EQ(fs.job_failures, 0u);
  EXPECT_EQ(result_hash(r), reference);
}

TEST(SweepFault, WatchdogTimeoutBecomesAStructuredJobError) {
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  exp::reset_fault_stats();
  SweepSpec spec = small_grid();
  spec.job_retries = 1;
  FaultPlan plan;
  // Every attempt of job 1 runs under a 1-event watchdog budget: the REAL
  // watchdog machinery fires inside the simulation loop and the guard
  // classifies it as a timeout.
  plan.sites.push_back({1, FaultPlan::Action::kTimeout, 1000});
  par::ThreadPool pool(2);
  exp::testing::FaultPlanGuard armed(plan);
  const SweepResult r = exp::run_sweep(spec, &pool);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].job_index, 1u);
  EXPECT_EQ(r.errors[0].kind, JobError::Kind::kTimeout);
  EXPECT_EQ(r.errors[0].attempts, 2);
  const auto fs = exp::fault_stats();
  EXPECT_EQ(fs.job_timeouts, 2u);
  EXPECT_EQ(fs.job_failures, 1u);
}

TEST(SweepFault, KindNamesAreStable) {
  EXPECT_STREQ(exp::kind_name(JobError::Kind::kException), "exception");
  EXPECT_STREQ(exp::kind_name(JobError::Kind::kTimeout), "timeout");
}

TEST(SweepFault, JobErrorCarriesTheConfigFingerprint) {
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  SweepSpec spec = small_grid();
  spec.job_retries = 0;
  const auto jobs = exp::expand(spec);
  FaultPlan plan;
  plan.sites.push_back({4, FaultPlan::Action::kThrow, 1000});
  par::ThreadPool pool(2);
  exp::testing::FaultPlanGuard armed(plan);
  const SweepResult r = exp::run_sweep(spec, &pool);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_EQ(r.errors[0].config_fingerprint,
            exp::run_cache::key_hash(jobs[4].scenario, jobs[4].scheme,
                                     spec.options));
  EXPECT_EQ(r.errors[0].point_index, jobs[4].point_index);
  EXPECT_EQ(r.errors[0].seed_index, jobs[4].seed_index);
}

TEST(SweepFault, RunAveragedThrowsWhenAJobFails) {
  ::unsetenv("WLAN_SWEEP_JOURNAL");
  ::setenv("WLAN_JOB_RETRIES", "0", 1);
  ::setenv("WLAN_JOB_BACKOFF_MS", "0", 1);
  FaultPlan plan;
  plan.sites.push_back({0, FaultPlan::Action::kThrow, 1000});
  exp::testing::FaultPlanGuard armed(plan);
  exp::RunOptions opts;
  opts.warmup = sim::Duration::zero();
  opts.measure = sim::Duration::seconds(0.1);
  EXPECT_THROW(exp::run_averaged(ScenarioConfig::connected(3, 1),
                                 SchemeConfig::standard(), 1, opts),
               std::runtime_error);
  ::unsetenv("WLAN_JOB_RETRIES");
  ::unsetenv("WLAN_JOB_BACKOFF_MS");
}

}  // namespace
