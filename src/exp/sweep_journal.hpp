// Sweep resume over the result store (exp::run_cache). A sweep's journal
// is just the set of keys it expects: run_sweep looks each job's key up in
// the store before fanning out (replay), and writes each freshly simulated
// job's entry once (append). An interrupted sweep therefore resumes where
// it stopped instead of recomputing the whole grid.
//
// Enabling: the store directory (run_cache::directory(): $WLAN_SWEEP_JOURNAL
// when set, otherwise $WLAN_RUN_CACHE). Like any store it must be opted
// into, because it can serve stale physics across code changes that alter
// simulation behaviour without touching any config field.
//
// Every entry is the store's: whole buffer serialized, FNV-1a checksum
// footer, unique temp name + atomic rename. A crash therefore leaves either
// a complete verifiable entry or nothing; there is no "flush" step and
// nothing to repair on restart. A corrupt entry is quarantined (renamed
// aside, exp.fault.journal_corrupt bumped) and its job simply re-runs.
// Because entries store doubles as raw bit patterns and the per-run
// metrics, and run_sweep's fold order never changes, a resumed sweep's
// output — metrics registry included — is byte-identical to an
// uninterrupted one.
//
// Series/trace runs bypass the store: series and traces are not
// serialized.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace wlan::exp::sweep_journal {

/// Fingerprint of a fully expanded job list: FNV-1a over the entry format
/// version, the job count, and each job's run_cache key hash in job order.
std::uint64_t sweep_fingerprint(const std::vector<std::uint64_t>& job_keys);

/// Where a sweep's entries live: the store directory `base` itself, since
/// every sweep shares the one store. `fingerprint` is unused.
std::string sweep_directory(const std::string& base, std::uint64_t fingerprint);

/// Looks every job key up in the store at `dir`, filling `results[i]` and
/// marking `done[i]` nonzero for each hit. Corrupt entries are quarantined
/// and counted; their jobs stay pending. Returns the number of jobs
/// replayed.
std::size_t replay(const std::string& dir,
                   const std::vector<std::uint64_t>& job_keys,
                   std::vector<RunResult>& results, std::vector<char>& done);

/// One store write of job `job_index`'s result. Best-effort: a failed
/// append costs re-simulation on resume, nothing else. Honors the
/// test-only FaultPlan kCorruptJournalEntry action by flipping a payload
/// byte of the just-written entry in place.
bool append(const std::string& dir, std::size_t job_index, std::uint64_t key,
            const RunResult& result);

}  // namespace wlan::exp::sweep_journal
