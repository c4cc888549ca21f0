// Shared pieces of the benchmark driver: the in-memory span log, the raw
// report the driver hands to perfbench/run.py, and host clocks.
//
// The driver measures and checks; it derives nothing. Every percentile,
// ratio and self time is computed by perfbench/metrics.py from the raw
// samples, counters and spans written here, so the derivations are tested
// in one place (perfbench/test_metrics.py).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace perfbench {

/// Host wall clock, nanoseconds since an arbitrary fixed origin.
std::int64_t wall_ns();
/// Process CPU seconds (user + system, all threads).
double process_cpu_s();

/// One timed interval at a layer boundary. `parent` indexes the enclosing
/// span in the same log (-1 for a root); `items` is how many operations
/// the span covers (e.g. entries replayed by one journal replay call).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t items = 1;
};

/// Spans stay in memory and are written out with the report at the end.
class SpanLog {
 public:
  int open(const std::string& name, int parent = -1);
  void close(int id, std::int64_t items = 1);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Host-speed calibration. The shared 4-core host this benchmark was built
/// on runs the simulator up to ~1.7x slower for seconds at a time while
/// other tenants compete for it, and the event counts do not change. A
/// fixed kernel (driver.cpp, not from src/) timed between the measured
/// units tracks most of that; perfbench/metrics.py scales each measured
/// unit by the calibration spans around it. One "calib" span per call.
class Calibrator {
 public:
  Calibrator(SpanLog& log, int parent) : log_(log), parent_(parent) {}
  /// Calibrates when the last calibration is older than kEvery_ns.
  void maybe();
  void force();

  static constexpr std::int64_t kEvery_ns = 30'000'000;

 private:
  SpanLog& log_;
  int parent_;
  std::int64_t last_ns_ = 0;
};

/// A correctness check the driver ran: `ok` false counts as a failed
/// operation and makes the whole run fail.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one driver invocation measured, written as JSON.
struct Report {
  std::map<std::string, std::string> info;  // provenance and workload shape
  std::map<std::string, double> values;     // scalars and exact counters
  std::map<std::string, std::vector<double>> samples;  // repeated timings
  std::vector<Check> checks;
  std::int64_t attempted = 0;  // operations tried (runs or sweep jobs)
  std::int64_t failed = 0;     // operations that threw or mismatched
  SpanLog spans;

  void check(const std::string& name, bool ok, const std::string& detail);
  void add_sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }
  bool write_json(const std::string& path) const;
};

/// Resident size of the calibration kernel's table, which is built on the
/// first call; subtracted from the process's peak RSS.
double calibration_table_kb();

/// Driver options, straight from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// A fresh directory .bench_build/tmp/<tag>_<pid> in the working
/// directory; removed with its contents when the object goes away.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Per-entry costs of the result store and the sweep journal, called
/// directly: run_cache::store, run_cache::lookup and sweep_journal::append
/// once per entry ("store", "lookup", "append" spans), then one
/// sweep_journal::replay of them all ("replay" span, items = entries).
/// Each looked-up and replayed entry must equal what was stored.
void time_entry_ops(const std::vector<std::uint64_t>& keys,
                    const std::vector<wlan::exp::RunResult>& results,
                    const std::string& dir, Report& report);

/// Workload families. Each fills `report` and returns normally; failures
/// are recorded as checks, never thrown past the caller.
void run_single_workload(const Options& opt, Report& report);
void run_sweep_workload(const Options& opt, Report& report);
/// The sweep grid's job shape driven as a single run, with traced and
/// untraced repetitions: the sweep's layer shares in the traced run.
void run_sweep_job_shape(const Options& opt, Report& report);
/// One set-up repetition of the sweep grid's job shape.
void sweep_job_setup(std::uint64_t seed, Report& report);
/// Substrate loops on the event queue and medium public APIs (traced run).
void run_micro_loops(Report& report);

}  // namespace perfbench
