// perfbench_driver: runs one benchmark workload and writes what it measured
// as raw JSON. perfbench/run.py builds and invokes it and derives the
// reported metrics; run the driver directly only when debugging it:
//
//   perfbench_driver --workload hidden_tora --seed 1 --seconds 10
//                    --trace 0 --out raw.json
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the report is still written), 2 on a usage error or an unoptimised
// build.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "exp/run_cache.hpp"
#include "exp/sweep_journal.hpp"

extern char** environ;

namespace perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int SpanLog::open(const std::string& name, int parent) {
  spans_.push_back(Span{name, wall_ns(), 0, parent, 1});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id, std::int64_t items) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = wall_ns();
  s.items = items;
}

namespace {

volatile std::uint64_t calibration_sink = 0;

/// The calibration kernel's table: one random cycle through 8 MiB, larger
/// than a core's L2 and about the simulator's own working set. It is built
/// once, before anything is measured, and stays resident.
std::vector<std::uint32_t>& calibration_table() {
  static std::vector<std::uint32_t> table = [] {
    const std::uint32_t n = 1u << 21;
    std::vector<std::uint32_t> t(n);
    for (std::uint32_t i = 0; i < n; ++i) t[i] = i;
    std::uint64_t x = 5;
    for (std::uint32_t i = n - 1; i > 0; --i) {  // Sattolo: a single cycle
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(t[i], t[static_cast<std::uint32_t>((x >> 33) % i)]);
    }
    return t;
  }();
  return table;
}

/// The calibration kernel, ~1.2 ms on this host, the same work every call:
/// a sort and an ordered-map build (branchy, allocating) followed by a
/// dependent walk of 4096 steps through the table (one cache or memory
/// access after another). Neither half alone tracked the simulator's
/// slowdowns: across six runs of one hidden_tora seed, normalising by the
/// walk alone left a 0.049 spread (IQR / median) in the slice median, by
/// the sort and map alone 0.046, by both 0.035 (raw: 0.154). The walk
/// continues where the last call stopped: restarting at the same entry
/// would find the previous walk still in L2 when two calibrations run
/// back to back.
void calibration_kernel() {
  std::uint64_t x = 7;
  auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(x >> 33);
  };
  std::vector<std::uint32_t> v(4096);
  for (auto& e : v) e = next();
  std::sort(v.begin(), v.end());
  std::map<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t k = 0; k < 1500; ++k) m[next() >> 8] += k;

  static std::uint32_t position = 0;
  const std::vector<std::uint32_t>& t = calibration_table();
  std::uint32_t j = position;
  for (int k = 0; k < 4096; ++k) j = t[j];
  position = j;
  calibration_sink = calibration_sink + v[100] + m.size() + j;
}

}  // namespace

double calibration_table_kb() {
  return static_cast<double>(calibration_table().size() * sizeof(std::uint32_t)) /
         1024.0;
}

void Calibrator::maybe() {
  if (wall_ns() - last_ns_ >= kEvery_ns) force();
}

void Calibrator::force() {
  const int id = log_.open("calib", parent_);
  calibration_kernel();
  log_.close(id);
  last_ns_ = wall_ns();
}

ScratchDir::ScratchDir(const std::string& tag)
    : path_(std::filesystem::absolute(".bench_build/tmp/" + tag + "_" +
                                      std::to_string(getpid()))
                .string()) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void time_entry_ops(const std::vector<std::uint64_t>& keys,
                    const std::vector<wlan::exp::RunResult>& results,
                    const std::string& dir, Report& report) {
  namespace exp = wlan::exp;
  const std::string cache_dir = dir + "/cache";
  const std::string journal_dir = dir + "/journal";
  const int root = report.spans.open("entries");
  std::size_t bad = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    int sp = report.spans.open("store", root);
    exp::run_cache::store(cache_dir, keys[i], results[i]);
    report.spans.close(sp);
    exp::RunResult back;
    sp = report.spans.open("lookup", root);
    const bool hit = exp::run_cache::lookup(cache_dir, keys[i], back);
    report.spans.close(sp);
    if (!hit || back.total_mbps != results[i].total_mbps) ++bad;
    sp = report.spans.open("append", root);
    exp::sweep_journal::append(journal_dir, i, keys[i], results[i]);
    report.spans.close(sp);
  }
  std::vector<exp::RunResult> replayed(keys.size());
  std::vector<char> done(keys.size(), 0);
  const int sp = report.spans.open("replay", root);
  const std::size_t n = exp::sweep_journal::replay(journal_dir, keys, replayed, done);
  report.spans.close(sp, static_cast<std::int64_t>(n));
  report.spans.close(root, static_cast<std::int64_t>(keys.size()));
  for (std::size_t i = 0; i < keys.size(); ++i)
    if (!done[i] || replayed[i].total_mbps != results[i].total_mbps) ++bad;
  report.check("store and journal round trip", bad == 0,
               std::to_string(bad) + " of " + std::to_string(2 * keys.size()) +
                   " reads missing or changed");
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
  if (!ok) std::fprintf(stderr, "perfbench: check failed: %s: %s\n",
                        name.c_str(), detail.c_str());
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

bool Report::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string out = "{\n\"info\": {";
  const char* sep = "";
  for (const auto& [k, v] : info) {
    out += sep + json_string(k) + ": " + json_string(v);
    sep = ", ";
  }
  out += "},\n\"values\": {";
  sep = "";
  for (const auto& [k, v] : values) {
    out += sep + json_string(k) + ": " + json_number(v);
    sep = ",\n ";
  }
  out += "},\n\"samples\": {";
  sep = "";
  for (const auto& [k, vs] : samples) {
    out += sep + json_string(k) + ": [";
    const char* isep = "";
    for (const double v : vs) {
      out += isep + json_number(v);
      isep = ", ";
    }
    out += "]";
    sep = ",\n ";
  }
  out += "},\n\"checks\": [";
  sep = "";
  for (const Check& c : checks) {
    out += sep;
    out += "{\"name\": " + json_string(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + json_string(c.detail) + "}";
    sep = ",\n ";
  }
  out += "],\n\"attempted\": " + std::to_string(attempted) +
         ",\n\"failed\": " + std::to_string(failed) + ",\n\"spans\": [";
  sep = "";
  for (const Span& s : spans.spans()) {
    out += sep;
    out += "[" + json_string(s.name) + ", " + std::to_string(s.start_ns) +
           ", " + std::to_string(s.end_ns) + ", " + std::to_string(s.parent) +
           ", " + std::to_string(s.items) + "]";
    sep = ",\n ";
  }
  out += "]\n}\n";
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

namespace {

/// Clears every WLAN_* knob before the library reads any of them: a stray
/// WLAN_RUN_CACHE would serve cached results, WLAN_AUDIT/WLAN_FLIGHT would
/// add work, and the legacy-path latches (WLAN_COHORT, ...) would switch
/// the code under test. The workloads set the knobs they own themselves.
void scrub_wlan_environment() {
  std::vector<std::string> names;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "WLAN_", 5) == 0 && eq != nullptr)
      names.emplace_back(*e, static_cast<std::size_t>(eq - *e));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it would
/// report the launching interpreter's footprint when that is larger.
double peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kb;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<hidden_tora|dynamic_wtop|ess_poisson|sweep_resume> --seed <n> "
               "--seconds <s> --trace <0|1> --out <file>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench_driver: refusing to measure an unoptimised build "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  scrub_wlan_environment();
  perfbench::calibration_table_kb();  // build the table before measuring

  perfbench::Options opt;
  std::string out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return usage("bad --seed");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage("bad --seconds");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("bad --trace");
      opt.trace = val == "1";
    } else if (key == "--out") {
      out = val;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1 || out.empty() || opt.workload.empty())
    return usage("missing option");

  perfbench::Report report;
  report.info["workload"] = opt.workload;
  report.info["seed"] = std::to_string(opt.seed);
  report.info["build_type"] = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  report.info["compiler"] = "clang " __clang_version__;
#else
  report.info["compiler"] = "gcc " __VERSION__;
#endif
  try {
    if (opt.workload == "sweep_resume") {
      perfbench::run_sweep_workload(opt, report);
    } else if (opt.workload == "hidden_tora" ||
               opt.workload == "dynamic_wtop" ||
               opt.workload == "ess_poisson") {
      perfbench::run_single_workload(opt, report);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
    if (opt.trace) perfbench::run_micro_loops(report);
  } catch (const std::exception& e) {
    report.check("driver", false, e.what());
    ++report.failed;
  }

  // The calibration table is the instrument's, not the program's.
  report.values["peak_rss_kb"] = peak_rss_kb() - perfbench::calibration_table_kb();

  if (!report.write_json(out)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n", out.c_str());
    return 1;
  }
  for (const auto& c : report.checks)
    if (!c.ok) return 1;
  return 0;
}
