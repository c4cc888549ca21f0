// Fault-tolerance vocabulary for the experiment layer.
//
// JobError is the structured record run_sweep's job guard produces when a
// sweep job fails for good: an exception or watchdog timeout that survived
// every retry. The sweep does not abort on it (as the thread pool's
// lowest-lane rethrow would): a 10'000-job grid with one sick point
// finishes 9'999 jobs and reports the sick one.
//
// FaultStats are the process-wide exp.fault.* counters surfaced through
// the obs metrics registry (obs::add_fault_metrics), following the same
// cumulative pattern as run_cache::stats().
//
// FaultPlan is a TEST-ONLY deterministic fault injector: the kill/resume
// differential suites install a plan naming job indices that must throw,
// exceed their watchdog, or have their freshly written journal entry
// corrupted — so recovery paths are exercised bit-reproducibly without
// real signals. Production code never installs a plan; the check is one
// locked shared_ptr copy per job attempt.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wlan::exp {

struct RunOptions;

/// One sweep job's terminal failure, reported instead of aborting.
struct JobError {
  /// Index into the expanded job list (expand(spec) order).
  std::size_t job_index = 0;
  /// The grid point and seed-axis position the job belonged to.
  std::size_t point_index = 0;
  int seed_index = 0;
  /// run_cache::key_hash of the job's fully bound (scenario, scheme,
  /// options) — names the exact configuration that failed.
  std::uint64_t config_fingerprint = 0;
  /// what() of the last attempt's exception.
  std::string what;
  enum class Kind { kException, kTimeout } kind = Kind::kException;
  /// Total attempts made (1 + retries).
  int attempts = 0;
};

/// Stable lowercase name for a JobError kind ("exception" / "timeout"),
/// used by the sweep's failure report.
const char* kind_name(JobError::Kind kind);

/// Process-wide fault counters (exp.fault.* in the metrics registry).
struct FaultStats {
  std::uint64_t job_exceptions = 0;   // attempts that threw (non-timeout)
  std::uint64_t job_timeouts = 0;     // attempts that hit a watchdog
  std::uint64_t job_retries = 0;      // re-attempts after a failure
  std::uint64_t job_failures = 0;     // jobs abandoned (JobError emitted)
  std::uint64_t journal_replayed = 0; // jobs satisfied from a sweep journal
  std::uint64_t journal_appends = 0;  // journal entries written
  std::uint64_t journal_corrupt = 0;  // journal entries quarantined
};
FaultStats fault_stats();
void reset_fault_stats();

/// Internal: counter bumps used by the sweep engine and journal.
namespace fault_counters {
void add_exception();
void add_timeout();
void add_retry();
void add_failure();
void add_journal_replayed(std::uint64_t n);
void add_journal_append();
void add_journal_corrupt();
}  // namespace fault_counters

// --- Deterministic fault injection (TEST ONLY) ----------------------------

struct FaultPlan {
  enum class Action {
    kThrow,                // the job attempt throws before simulating
    kTimeout,              // the attempt runs with a 1-event watchdog budget
    kCorruptJournalEntry,  // the entry journaled for this job is corrupted
  };
  struct Site {
    std::size_t job_index = 0;
    Action action = Action::kThrow;
    /// How many attempts of this job are affected before the site is
    /// spent; `times` < retries+1 models a transient failure that a retry
    /// absorbs. Ignored for kCorruptJournalEntry (fires once).
    int times = 1;
  };
  std::vector<Site> sites;
};

namespace testing {

/// Installs `plan` (borrowed; must outlive the sweeps it arms) or clears
/// it with nullptr. Not safe to swap while a sweep is in flight.
void set_fault_plan(const FaultPlan* plan);

/// RAII installer for test scopes.
struct FaultPlanGuard {
  explicit FaultPlanGuard(const FaultPlan& plan) { set_fault_plan(&plan); }
  ~FaultPlanGuard() { set_fault_plan(nullptr); }
  FaultPlanGuard(const FaultPlanGuard&) = delete;
  FaultPlanGuard& operator=(const FaultPlanGuard&) = delete;
};

}  // namespace testing

namespace fault_injection {

/// Applied by the job guard before each attempt: may throw (kThrow) or
/// shrink the watchdog budget (kTimeout) per the installed plan. No-op
/// when no plan is installed.
void apply_before_attempt(std::size_t job_index, RunOptions& options);

/// True when the installed plan wants this job's freshly appended journal
/// entry corrupted (consumes the site). The journal flips a payload byte
/// in place, which the checksum footer must catch on resume.
bool wants_journal_corruption(std::size_t job_index);

}  // namespace fault_injection

}  // namespace wlan::exp
