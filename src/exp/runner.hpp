// Experiment runner: executes a (scenario, scheme) pair and collects every
// quantity the paper's tables and figures report. Also supports dynamic
// node-population scenarios (Figs. 8-11) and multi-seed averaging.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/scenario.hpp"
#include "obs/metrics.hpp"
#include "stats/delay.hpp"
#include "stats/timeseries.hpp"

namespace wlan::obs {
struct TraceCapture;
}

namespace wlan::exp {

struct RunOptions {
  /// Discarded settling interval before measurement begins. Adaptive
  /// schemes keep adapting during warm-up (that is the point of it).
  sim::Duration warmup = sim::Duration::seconds(5.0);
  /// Measured interval; throughput and idle slots are computed over it.
  sim::Duration measure = sim::Duration::seconds(20.0);
  /// Windowed throughput sampling period for time series.
  sim::Duration sample_period = sim::Duration::seconds(1.0);
  /// Record time series (throughput / control variable / stage).
  bool record_series = false;
  /// When non-null, the run records an event trace into this capture
  /// (mask/capacity in, records/dropped out — see obs/trace.hpp). Like
  /// record_series, a capture bypasses the run cache: a cached result has
  /// no simulator to trace. Not owned; must outlive the call.
  obs::TraceCapture* trace = nullptr;

  // Watchdog: converts a hung/runaway run into a sim::WatchdogExpired
  // exception the sweep job guard retries and then reports as a structured
  // JobError, instead of wedging the whole sweep. Both knobs are
  // deliberately excluded from the run-cache key: a run that FINISHES
  // under a watchdog is bit-identical to one without it.
  /// Maximum events executed before the run is declared hung (0 = off).
  /// Deterministic, so timeout fault-injection tests reproduce exactly.
  std::uint64_t max_events = 0;
  /// Wall-clock deadline in milliseconds (0 = off). Checked every few
  /// thousand events; inherently nondeterministic — a safety net for real
  /// deployments, not for differential tests.
  std::int64_t max_wall_ms = 0;
};

struct RunResult {
  double total_mbps = 0.0;
  std::vector<double> per_station_mbps;
  /// Average idle slots per transmission observed at the AP during the
  /// measured window (Table III).
  double ap_avg_idle_slots = 0.0;
  /// Unordered hidden station pairs in the topology.
  std::size_t hidden_pairs = 0;
  /// Mean per-slot attempt probability across stations at the end.
  double mean_attempt_probability = 0.0;
  /// Station-side counts over the measured window.
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;

  // Traffic-layer metrics over the measured window; all zero when the
  // scenario runs the saturated default (no sources, no queues).
  std::uint64_t packets_offered = 0;  // arrivals at the queues, drops included
  std::uint64_t packets_dropped = 0;  // tail drops at full queues
  double offered_mbps = 0.0;          // arrival payload rate, all stations
  double drop_rate = 0.0;             // packets_dropped / packets_offered
  /// Time-averaged total packets queued across all stations.
  double mean_queue_occupancy = 0.0;
  /// Per-packet MAC delay (enqueue -> ACK), merged across stations.
  double mean_delay_s = 0.0;
  double delay_p50_s = 0.0;
  double delay_p95_s = 0.0;
  double delay_p99_s = 0.0;
  /// The full delay distribution behind the summary quantiles above.
  stats::DelayHistogram delays;

  /// Station index of each cleanly received data frame, in order (only
  /// when RunOptions::record_series; drives short-term fairness metrics).
  std::vector<int> success_sources;

  /// Unified counter snapshot (sim.*, medium.*, mac.cohort.*, traffic.*,
  /// cache.*; see obs/collect.hpp) taken when measurement ends. A result
  /// read from the store carries the per-run names only (process-cumulative
  /// cache.*, exp.fault.*, profile.* are not stored).
  obs::MetricsRegistry metrics;

  // Time series over the WHOLE run (including warm-up), when requested.
  stats::TimeSeries throughput_series{"Mb/s"};
  stats::TimeSeries control_series{"control"};
  stats::TimeSeries stage_series{"stage"};
  stats::TimeSeries active_nodes_series{"N"};
  // Sampled only when the scenario runs finite traffic sources.
  stats::TimeSeries queue_series{"pkts"};     // total packets queued
  stats::TimeSeries drop_series{"drops/s"};   // windowed drop rate
};

/// Runs one scenario under one scheme. With a result store configured
/// (run_cache::directory()) and no series/trace recording, a stored entry
/// answers the call, and a fresh result is stored.
RunResult run_scenario(const ScenarioConfig& scenario,
                       const SchemeConfig& scheme,
                       const RunOptions& options = {});

/// run_scenario without the store: always simulates, reads and writes no
/// entry. run_sweep runs the jobs its own lookup missed through this.
RunResult simulate_scenario(const ScenarioConfig& scenario,
                            const SchemeConfig& scheme,
                            const RunOptions& options);

/// Averages total_mbps (and idle slots / fairness inputs) over `seeds`
/// seeds: scenario.seed, scenario.seed+1, ... The seed runs fan out across
/// the global par::ThreadPool (WLAN_THREADS lanes) via exp::run_sweep; the
/// result is bit-identical to a serial loop for any thread count.
struct AveragedResult {
  double mean_mbps = 0.0;
  double min_mbps = 0.0;
  double max_mbps = 0.0;
  double mean_idle_slots = 0.0;
  double mean_hidden_pairs = 0.0;
  // Seed means of the traffic metrics (zero for saturated runs).
  double mean_offered_mbps = 0.0;
  double mean_drop_rate = 0.0;
  double mean_queue_occupancy = 0.0;
  double mean_delay_s = 0.0;
  double mean_delay_p50_s = 0.0;
  double mean_delay_p95_s = 0.0;
  double mean_delay_p99_s = 0.0;
};
AveragedResult run_averaged(const ScenarioConfig& scenario,
                            const SchemeConfig& scheme, int seeds,
                            const RunOptions& options = {});

/// One step of a dynamic node-population schedule: at `t_seconds`, exactly
/// `active_stations` stations are active (stations are activated and
/// deactivated in index order).
struct PopulationStep {
  double t_seconds;
  int active_stations;
};

/// Dynamic scenario (Figs. 8-11): the network holds scenario.num_stations
/// stations; the schedule toggles how many are active over time. Series are
/// always recorded. Throughput/idle metrics cover the full duration.
RunResult run_dynamic(const ScenarioConfig& scenario,
                      const SchemeConfig& scheme,
                      const std::vector<PopulationStep>& schedule,
                      sim::Duration total_duration,
                      sim::Duration sample_period = sim::Duration::seconds(1),
                      obs::TraceCapture* trace = nullptr);

}  // namespace wlan::exp
