// Recorded-hash helpers shared by the golden tests.
//
// hash_result() is the run hash of the random corpus (tests/
// test_golden_corpus.cpp, golden_corpus_hashes.inc). expect_golden() checks
// a run against the named table golden_path_hashes.inc: the scenarios the
// contention-arbiter and medium suites pin, plus driver-shaped points. Both
// tables were recorded while the one-event-per-slot backoff, the
// per-station contention events and the full-scan interference marking
// still ran beside the production path, and every path produced every
// recorded hash.
//
// Re-recording (only for a change that declares a behaviour change): a
// mismatch prints the replacement line `{"label", 0x...ULL},`; paste it
// into the .inc file.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "stats/timeseries.hpp"
#include "util/fnv.hpp"

namespace wlan::golden {

inline void hash_series(const stats::TimeSeries& s, util::Fnv1a& h) {
  for (const auto& sample : s.samples()) {
    h.mix_double_word(sample.t_seconds);
    h.mix_double_word(sample.value);
  }
}

/// Every series and scalar a RunResult reports.
inline std::uint64_t hash_result(const exp::RunResult& r) {
  util::Fnv1a h;
  hash_series(r.throughput_series, h);
  hash_series(r.control_series, h);
  hash_series(r.stage_series, h);
  hash_series(r.active_nodes_series, h);
  hash_series(r.queue_series, h);
  h.mix_double_word(r.total_mbps);
  for (double v : r.per_station_mbps) h.mix_double_word(v);
  h.mix_double_word(r.ap_avg_idle_slots);
  h.mix_double_word(r.mean_attempt_probability);
  h.mix_double_word(static_cast<double>(r.successes));
  h.mix_double_word(static_cast<double>(r.failures));
  h.mix_double_word(static_cast<double>(r.packets_offered));
  h.mix_double_word(static_cast<double>(r.packets_dropped));
  h.mix_double_word(r.mean_delay_s);
  h.mix_double_word(r.drop_rate);
  return h.digest();
}

/// hash_result plus the order of successful senders, the delay quantiles,
/// the drop series and the hidden-pair count.
inline std::uint64_t hash_run(const exp::RunResult& r) {
  util::Fnv1a h;
  h.mix_u64_word(hash_result(r));
  for (int src : r.success_sources)
    h.mix_u64_word(static_cast<std::uint64_t>(src));
  h.mix_double_word(r.delay_p50_s);
  h.mix_double_word(r.delay_p95_s);
  h.mix_double_word(r.delay_p99_s);
  hash_series(r.drop_series, h);
  h.mix_u64_word(r.hidden_pairs);
  return h.digest();
}

struct NamedHash {
  const char* label;
  std::uint64_t hash;
};

inline constexpr NamedHash kGoldenPaths[] = {
#include "golden_path_hashes.inc"
};

/// Checks `got` against the table entry `label`.
inline void expect_golden(const std::string& label, std::uint64_t got) {
  char line[160];
  std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxULL},", label.c_str(),
                static_cast<unsigned long long>(got));
  for (const NamedHash& e : kGoldenPaths) {
    if (label != e.label) continue;
    EXPECT_EQ(got, e.hash) << label << ": hash changed; replacement line:\n"
                           << line;
    return;
  }
  ADD_FAILURE() << label << ": no recorded hash; add the line:\n" << line;
}

inline void expect_golden(const std::string& label, const exp::RunResult& r) {
  expect_golden(label, hash_run(r));
}

/// The short series-recording run most table entries use.
inline exp::RunOptions series_options(double measure_s = 0.4) {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.1);
  opts.measure = sim::Duration::seconds(measure_s);
  opts.sample_period = sim::Duration::seconds(0.05);
  opts.record_series = true;  // also bypasses the run cache
  return opts;
}

/// Runs the scenario and checks it against the entry "<what> <scheme>".
inline void expect_run(const std::string& what,
                       const exp::ScenarioConfig& scenario,
                       const exp::SchemeConfig& scheme,
                       const exp::RunOptions& opts) {
  expect_golden(what + " " + scheme.name(),
                exp::run_scenario(scenario, scheme, opts));
}

}  // namespace wlan::golden
