// The result store: one on-disk entry per fully bound run, keyed by a
// content hash of everything that determines the (bit-exact) outcome — the
// full ScenarioConfig (topology, PHY, traffic, seed), SchemeConfig (scheme
// kind + every controller option), and the RunOptions' warmup and measure
// windows. It is both the cross-driver run cache and the sweep's resume
// state: run_scenario reads and writes it, and run_sweep looks every job
// up before fanning out, so an interrupted sweep resumes by key lookup
// (exp::sweep_journal is a thin layer over these calls).
//
// Enabling: the store directory is $WLAN_SWEEP_JOURNAL when set, otherwise
// $WLAN_RUN_CACHE (created on first write). Both unset/empty disables every
// store path (the default — a store must be opted into because it can
// serve stale results across *code* changes that alter simulation
// behaviour). bench/run_all.sh opts in with an invocation-scoped
// WLAN_RUN_CACHE under results/, wiped at startup unless WLAN_RUN_CACHE_KEEP
// asks for cross-invocation reuse. With WLAN_SWEEP_JOURNAL set, every
// driver reads and writes that directory instead, and nothing wipes it.
//
// Runs that record time series (RunOptions::record_series) or a trace
// bypass the store: series, traces and the success-source log are not
// serialized.
//
// Storage: one little-endian binary `<key>.run` file per key, written to a
// temp name and atomically renamed — concurrent drivers and pool lanes may
// race on the same point and both compute it, but readers only ever see
// complete files. An entry carries the scalar results, the delay
// histogram and the run's per-run metrics (process-cumulative names —
// cache.*, exp.fault.*, profile.* — filtered out), so a read returns what
// a fresh run would fold. Every entry ends in an FNV-1a checksum over the
// payload bytes; a file that exists but fails the checksum (bit rot, a
// torn write surviving a crash, a foreign format) is QUARANTINED — renamed
// aside with a .quarantined suffix so it can be inspected but never read
// again — and the point is recomputed. $WLAN_RUN_CACHE_MAX_MB prunes the
// oldest entries when a process first opens the directory; a pruned resume
// entry costs only its recomputation.
//
// MAINTENANCE: key_hash() enumerates every config field by hand. When a
// field is added to ScenarioConfig / SchemeConfig / WifiParams /
// TrafficConfig / KwOptions / controller Options, extend key_hash() (and
// bump kFormatVersion if RunResult serialization changes shape).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace wlan::exp::run_cache {

/// Bumped whenever the serialized RunResult layout or the key schema
/// changes; readers reject other versions as misses.
/// v2: FNV-1a content-checksum footer appended to every entry.
/// v3: metrics section (count + name/value pairs) after the delay histogram.
/// v4: every entry fills the metrics section (v3 cache entries left it
///     empty), so no v3 entry can answer a lookup without its metrics.
inline constexpr std::uint32_t kFormatVersion = 4;

/// The store directory: $WLAN_SWEEP_JOURNAL when set, otherwise
/// $WLAN_RUN_CACHE; empty = disabled. Re-read on every call so tests (and
/// long-lived tools) can retarget it.
std::string directory();

/// directory() for a run with `options`; empty when the run records a time
/// series or a trace (neither is serialized). run_scenario and run_sweep
/// both resolve the store through this.
std::string directory_for(const RunOptions& options);

/// Size bound from $WLAN_RUN_CACHE_MAX_MB in bytes; 0 = unbounded
/// (default). Exits(2) on a malformed value like the other strict knobs.
std::uint64_t max_bytes_from_env();

/// Prunes `dir` oldest-first (by last-write time) until its *.run entries
/// total at most `max_bytes`. Returns the number of entries removed and
/// adds them to Stats::pruned. Lookup/store run this once per process per
/// directory when $WLAN_RUN_CACHE_MAX_MB is set; exposed for tests and
/// tools. Temp and quarantined files are never touched.
std::size_t prune_dir(const std::string& dir, std::uint64_t max_bytes);

/// Content hash of a run's full identity (FNV-1a over a canonical field
/// serialization; see the maintenance note above).
std::uint64_t key_hash(const ScenarioConfig& scenario,
                       const SchemeConfig& scheme, const RunOptions& options);

/// Parse outcomes for an on-disk entry.
enum class EntryStatus {
  kOk,       // parsed, checksum verified, key matched
  kMissing,  // no file at the path
  kCorrupt,  // file exists but fails checksum/structure/key validation
};

/// Reads the stored result for `key` from `dir` into `out` (untouched
/// unless kOk). A kCorrupt entry has been quarantined (renamed aside)
/// before returning. Counts one hit or miss.
EntryStatus find(const std::string& dir, std::uint64_t key, RunResult& out);

/// find() == kOk.
bool lookup(const std::string& dir, std::uint64_t key, RunResult& out);

/// Writes `result` for `key` under `dir` atomically, creating `dir` when
/// the first write finds it missing. Returns false when the write failed
/// (the run still succeeds — the store is best-effort).
bool store(const std::string& dir, std::uint64_t key,
           const RunResult& result);

/// The entry file for `key` under `dir`.
std::string entry_path(const std::string& dir, std::uint64_t key);

/// Serializes (key, result) into the versioned entry byte stream:
/// magic+version header, key, scalar fields, sparse delay histogram, the
/// result's metrics minus process-cumulative names, and a trailing FNV-1a
/// checksum over everything before it.
std::vector<unsigned char> serialize_entry(std::uint64_t key,
                                           const RunResult& result);

/// Parses a serialize_entry buffer; kOk only when the checksum verifies,
/// the header/version/key match, and the payload parses completely.
EntryStatus deserialize_entry(const std::vector<unsigned char>& buf,
                              std::uint64_t key, RunResult& out);

/// Process-wide counters (exposed for tests and driver summaries).
struct Stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_failures = 0;
  /// Checksum-failing entries renamed aside and recomputed.
  std::uint64_t quarantined = 0;
  /// Entries removed oldest-first by the WLAN_RUN_CACHE_MAX_MB bound.
  std::uint64_t pruned = 0;
};
Stats stats();
void reset_stats();

}  // namespace wlan::exp::run_cache
