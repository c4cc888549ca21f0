// The three single-run workloads. Each run is driven from outside the
// library through its public functions, one simulated second per
// Network::run_for call, so every layer boundary can carry a span. A
// repetition drives each of the workload's placements in turn:
//
//   rep ─┬─ setup ─┬─ propagation       exp::make_propagation
//        │         ├─ topology ─┬─ plan  exp::make_plan
//        │         │            └─ hidden topology::count_hidden_pairs
//        │         ├─ build             exp::build_network
//        │         └─ start             sampler + Network::start
//        ├─ warmup_slice × W            Network::run_for(1 s)
//        ├─ slice × M                   Network::run_for(1 s), measured
//        └─ collect                     obs::collect_metrics + result fold
//
// The driven run must equal exp::run_scenario / exp::run_dynamic on the
// same config bit for bit (goodput, counters, throughput/control series);
// the check runs every invocation, against every repetition.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/run_cache.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "obs/collect.hpp"
#include "obs/trace.hpp"
#include "stats/convergence.hpp"
#include "topology/hidden.hpp"
#include "util/fnv.hpp"

namespace perfbench {

namespace {

using namespace wlan;

/// A workload's fixed shape. Only the scenario seed comes from --seed.
struct Shape {
  exp::ScenarioConfig scenario;
  exp::SchemeConfig scheme;
  double warmup_s = 0.0;   // run_scenario shape: discarded, then measured
  double measure_s = 0.0;
  bool dynamic = false;    // run_dynamic shape: population schedule
  std::vector<exp::PopulationStep> schedule;
};

/// A workload's runs, one per placement, driven back to back in every
/// repetition.
using Workload = std::vector<Shape>;

constexpr int kSetupEvery = 4;

Workload make_workload(const std::string& workload, std::uint64_t seed) {
  Shape s;
  if (workload == "hidden_tora") {
    // The paper's headline setting: saturated TORA-CSMA with hidden nodes.
    // Four placements per repetition: hidden pairs per placement range
    // from ~35 to ~80, and one placement alone made the work per seed
    // swing too much to compare runs.
    s.scheme = exp::SchemeConfig::tora_csma();
    s.warmup_s = 15.0;
    s.measure_s = 25.0;
    Workload w;
    for (std::uint64_t k = 0; k < 4; ++k) {
      s.scenario = exp::ScenarioConfig::hidden(20, 20.0, seed * 4 + k);
      w.push_back(s);
    }
    return w;
  } else if (workload == "dynamic_wtop") {
    // Figs. 8-9 shape: one sensing domain, population 10 -> 40 -> 20 -> 60.
    // Slice cost grows with the population, so the slices form one cluster
    // per phase. With equal phases the median fell in the gap between the
    // 20- and 40-station clusters and jumped with host noise; 20/40/20/40 s
    // phases put the median inside the 40-station cluster and the p90
    // inside the 60-station one.
    s.scenario = exp::ScenarioConfig::connected(60, seed);
    s.scheme = exp::SchemeConfig::wtop_csma();
    s.dynamic = true;
    s.measure_s = 120.0;
    s.schedule = {{0.0, 10}, {20.0, 40}, {60.0, 20}, {80.0, 60}};
  } else if (workload == "sweep_job") {
    // One job of the sweep_resume grid at its middle attempt probability,
    // run longer: its set-up is the sweep's per-job set-up, and its traced
    // repetitions give the sweep's layer shares.
    s.scenario = exp::ScenarioConfig::hidden(20, 16.0, seed * 1000);
    s.scheme = exp::SchemeConfig::fixed_p_persistent(std::exp(-4.6));
    s.warmup_s = 2.0;
    s.measure_s = 20.0;
  } else {
    // ESS: 9 cells x 10 stations, DCF, Poisson arrivals below the knee.
    s.scenario = exp::ScenarioConfig::multicell(9, 10, 40.0, seed);
    s.scenario.traffic = traffic::TrafficConfig::poisson(2.0);
    s.scheme = exp::SchemeConfig::standard();
    s.warmup_s = 5.0;
    s.measure_s = 100.0;
  }
  return {s};
}

/// What one driven run produced; compared field by field with the
/// library's own runner.
struct Outcome {
  double goodput_mbps = 0.0;
  double delay_p99_s = 0.0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;
  std::size_t hidden_pairs = 0;
  std::uint64_t series_hash = 0;
  obs::MetricsRegistry counters;
  stats::TimeSeries throughput{"Mb/s"};
  stats::TimeSeries control{"control"};
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
};

double control_value(mac::Network& net, exp::SchemeKind kind) {
  switch (kind) {
    case exp::SchemeKind::kWTopCsma:
      return static_cast<core::WTopCsmaController*>(net.controller())
          ->current_probe();
    case exp::SchemeKind::kToraCsma:
      return static_cast<core::ToraCsmaController*>(net.controller())
          ->current_probe();
    default: {
      double sum = 0.0;
      for (int i = 0; i < net.num_stations(); ++i)
        sum += net.station(i).strategy().attempt_probability();
      return net.num_stations() > 0 ? sum / net.num_stations() : 0.0;
    }
  }
}

/// One-second sampler with the runner's event shape (one self-rescheduling
/// event per period, armed before start), so the driven run schedules
/// exactly the events exp::run_scenario(record_series) does.
struct Sampler : std::enable_shared_from_this<Sampler> {
  mac::Network& net;
  exp::SchemeKind kind;
  Outcome& out;
  std::int64_t prev_bits = 0;

  Sampler(mac::Network& n, exp::SchemeKind k, Outcome& o)
      : net(n), kind(k), out(o) {}

  void arm() {
    net.simulator().schedule_after(sim::Duration::seconds(1.0),
                                   [self = shared_from_this()] { self->tick(); });
  }
  void tick() {
    const std::int64_t bits = net.counters().total_bits_delivered();
    const double mbps =
        std::max<double>(0.0, static_cast<double>(bits - prev_bits)) / 1e6;
    prev_bits = bits;
    out.throughput.add(net.simulator().now(), mbps);
    out.control.add(net.simulator().now(), control_value(net, kind));
    arm();
  }
};

std::uint64_t hash_series(const stats::TimeSeries& a,
                          const stats::TimeSeries& b) {
  util::Fnv1a h;
  for (const auto* s : {&a, &b})
    for (const auto& x : s->samples()) {
      h.mix_double_word(x.t_seconds);
      h.mix_double_word(x.value);
    }
  return h.digest();
}

/// Per-run counters only: process-cumulative names (cache.*, exp.fault.*,
/// profile.*) depend on what else the process did.
obs::MetricsRegistry run_counters(const obs::MetricsRegistry& reg) {
  obs::MetricsRegistry out;
  for (const auto& m : reg.entries())
    if (!obs::is_process_cumulative_metric(m.name)) out.set(m.name, m.value);
  return out;
}

/// Builds and starts the network under `setup` spans. Returns the started
/// network; `profile` (may be null) is attached before start.
std::unique_ptr<mac::Network> set_up(const Shape& shape, SpanLog& log,
                                     int parent, obs::SimObs* profile,
                                     Outcome& out) {
  const int setup = log.open("setup", parent);
  int sp = log.open("propagation", setup);
  const auto prop = exp::make_propagation(shape.scenario);
  log.close(sp);
  const int topo = log.open("topology", setup);
  sp = log.open("plan", topo);
  const auto plan = exp::make_plan(shape.scenario);
  log.close(sp);
  sp = log.open("hidden", topo);
  out.hidden_pairs = topology::count_hidden_pairs(
      topology::Layout{plan.aps[0], plan.stations}, *prop);
  log.close(sp);
  log.close(topo);
  sp = log.open("build", setup);
  auto net = exp::build_network(shape.scenario, shape.scheme);
  log.close(sp);
  sp = log.open("start", setup);
  if (profile != nullptr) net->simulator().attach_obs(profile);
  std::make_shared<Sampler>(*net, shape.scheme.kind, out)->arm();
  net->start();
  if (shape.dynamic) {
    for (const auto& step : shape.schedule) {
      const int target = std::clamp(step.active_stations, 0, net->num_stations());
      mac::Network* raw = net.get();
      net->simulator().schedule_at(
          sim::Time::from_seconds(step.t_seconds), [raw, target] {
            for (int i = 0; i < raw->num_stations(); ++i)
              raw->station(i).set_active(i < target);
          });
    }
  }
  log.close(sp);
  log.close(setup);
  return net;
}

/// One set-up repetition (a "setup_rep" root span) between calibrations.
void setup_rep(const Shape& shape, Report& report) {
  Calibrator cal(report.spans, -1);
  cal.force();
  Outcome scratch;
  const int rep = report.spans.open("setup_rep");
  set_up(shape, report.spans, rep, nullptr, scratch);
  report.spans.close(rep);
  cal.force();
}

/// One driven run of `shape` inside repetition span `rep`. Every
/// kSetupEvery-th measured slice is preceded by a set-up repetition of
/// the same shape, so set-up is sampled across the whole measuring time.
Outcome drive(const Shape& shape, Report& report, int rep,
              obs::SimObs* profile) {
  SpanLog& log = report.spans;
  Outcome out;
  auto net = set_up(shape, log, rep, profile, out);
  const auto one_second = sim::Duration::seconds(1.0);
  for (int i = 0; i < static_cast<int>(shape.warmup_s); ++i) {
    const int sp = log.open("warmup_slice", rep);
    net->run_for(one_second);
    log.close(sp);
  }
  if (shape.warmup_s > 0.0) {
    net->reset_counters();
    net->ap().idle_meter().reset();
  }
  Calibrator cal(log, rep);
  for (int i = 0; i < static_cast<int>(shape.measure_s); ++i) {
    if (i % kSetupEvery == 0) setup_rep(shape, report);
    cal.maybe();
    const int sp = log.open("slice", rep);
    net->run_for(one_second);
    log.close(sp);
  }
  cal.force();

  const int col = log.open("collect", rep);
  out.goodput_mbps = net->counters().total_mbps(net->measured_duration());
  out.successes = net->counters().total_successes();
  out.failures = net->counters().total_failures();
  if (net->traffic_enabled()) {
    stats::DelayHistogram delays;
    for (int i = 0; i < net->num_stations(); ++i) {
      delays.merge(net->traffic_source(i).delays());
      out.arrivals += net->traffic_source(i).arrivals();
      out.drops += net->traffic_source(i).drops();
    }
    out.delay_p99_s = delays.quantile(0.99);
  }
  out.counters = obs::collect_metrics(*net);
  out.series_hash = hash_series(out.throughput, out.control);
  log.close(col);
  return out;
}

/// One repetition: every placement under one root span. A profiled
/// repetition attaches the phase profiler WLAN_PROFILE=1 would enable and
/// adds its buckets to the report.
std::vector<Outcome> repetition(const Workload& w, bool profiled,
                                Report& report) {
  const std::string root = profiled ? "rep_traced" : "rep";
  const double cpu0 = process_cpu_s();
  const int rep = report.spans.open(root);
  // Outlives every network it is attached to.
  std::unique_ptr<obs::SimObs> profile;
  if (profiled) {
    profile = std::make_unique<obs::SimObs>(0u, 1);
    profile->profiler.enable();
  }
  std::vector<Outcome> outs;
  for (const Shape& shape : w)
    outs.push_back(drive(shape, report, rep, profile.get()));
  report.spans.close(rep);
  report.add_sample(root + "_cpu_s", process_cpu_s() - cpu0);
  if (profile != nullptr) {
    const obs::PhaseProfiler& p = profile->profiler;
    for (unsigned c = 0; c < obs::kNumCategories; ++c) {
      const auto cat = static_cast<obs::Category>(c);
      report.values[std::string("profile.") + obs::category_name(cat) +
                    ".wall_ns"] += static_cast<double>(p.wall_ns(cat));
    }
  }
  return outs;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Compares a driven run with the reference; records one check and counts
/// the operation as failed on any difference.
void compare(const std::string& what, const Outcome& got, const Outcome& ref,
             Report& report) {
  std::string diff;
  if (got.goodput_mbps != ref.goodput_mbps)
    diff += " goodput " + fmt(got.goodput_mbps) + " != " + fmt(ref.goodput_mbps);
  if (got.series_hash != ref.series_hash) diff += " series hash differs";
  if (got.successes != ref.successes || got.failures != ref.failures)
    diff += " success/failure counts differ";
  if (got.hidden_pairs != ref.hidden_pairs) diff += " hidden pairs differ";
  if (got.delay_p99_s != ref.delay_p99_s) diff += " delay p99 differs";
  if (!(run_counters(got.counters) == run_counters(ref.counters)))
    diff += " counters differ";
  report.check(what, diff.empty(), diff.empty() ? "identical" : diff);
  if (!diff.empty()) ++report.failed;
}

/// The library's own runner on the same config: the reference every
/// driven repetition must reproduce. `r` receives the runner's result.
Outcome reference(const Shape& shape, exp::RunResult& r) {
  if (shape.dynamic) {
    r = exp::run_dynamic(shape.scenario, shape.scheme, shape.schedule,
                         sim::Duration::seconds(shape.measure_s));
  } else {
    exp::RunOptions o;
    o.warmup = sim::Duration::seconds(shape.warmup_s);
    o.measure = sim::Duration::seconds(shape.measure_s);
    o.record_series = true;
    r = exp::run_scenario(shape.scenario, shape.scheme, o);
  }
  Outcome out;
  out.goodput_mbps = r.total_mbps;
  out.delay_p99_s = r.delay_p99_s;
  out.successes = r.successes;
  out.failures = r.failures;
  out.hidden_pairs = r.hidden_pairs;
  out.counters = r.metrics;
  out.series_hash = hash_series(r.throughput_series, r.control_series);
  return out;
}

/// Settling time of the control variable after each population step:
/// stats::analyze_convergence on the step's segment, oriented so the
/// approach to the settled value is from below (the analysis measures
/// time to reach 90 % of the settled mean). Mean over steps, sim seconds.
double settle_sim_s(const Shape& shape, const stats::TimeSeries& control) {
  std::vector<double> starts;
  if (shape.dynamic) {
    for (const auto& step : shape.schedule) starts.push_back(step.t_seconds);
  } else {
    starts.push_back(0.0);
  }
  const double end = shape.warmup_s + shape.measure_s;
  double total = 0.0;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    const double lo = starts[k];
    const double hi = k + 1 < starts.size() ? starts[k + 1] : end + 1.0;
    std::vector<stats::Sample> seg;
    for (const auto& s : control.samples())
      if (s.t_seconds > lo && s.t_seconds <= hi) seg.push_back(s);
    if (seg.empty()) continue;
    const std::size_t tail = seg.size() - std::max<std::size_t>(1, seg.size() / 4);
    double settled = 0.0;
    for (std::size_t i = tail; i < seg.size(); ++i) settled += seg[i].value;
    settled /= static_cast<double>(seg.size() - tail);
    const bool rising = seg.front().value <= settled;
    stats::TimeSeries oriented;
    for (const auto& s : seg) {
      const double v = rising ? s.value / settled : settled / s.value;
      oriented.add(s.t_seconds - lo, std::isfinite(v) ? v : 0.0);
    }
    total += stats::analyze_convergence(oriented).time_to_threshold;
  }
  return total / static_cast<double>(starts.size());
}

/// Full repetitions until `seconds` are spent (at least one), each
/// placement checked against the library runner. The traced run
/// alternates untraced and profiled repetitions so both see the same host
/// conditions. Returns the first repetition; `results` receives the
/// runner's results.
std::vector<Outcome> measure_reps(const Workload& w, double seconds,
                                  bool trace, Report& report,
                                  std::vector<exp::RunResult>& results) {
  std::vector<std::vector<Outcome>> reps;
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
  bool profiled = false;
  do {
    reps.push_back(repetition(w, profiled, report));
    report.attempted += static_cast<std::int64_t>(w.size());
    if (trace) profiled = !profiled;
  } while (wall_ns() < deadline || (trace && profiled));

  results.resize(w.size());
  double settle = 0.0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    const Outcome ref = reference(w[k], results[k]);
    ++report.attempted;
    for (std::size_t i = 0; i < reps.size(); ++i)
      compare("rep " + std::to_string(i) + " placement " + std::to_string(k) +
                  " == library runner",
              reps[i][k], ref, report);
    settle += settle_sim_s(w[k], reps.front()[k].control);
  }
  report.values["core.settle_sim_s"] = settle / static_cast<double>(w.size());
  return reps.front();
}

/// Exact per-run figures of one repetition: goodput and delay averaged
/// over placements, counts summed.
void record_outcomes(const std::vector<Outcome>& outs, Report& report) {
  const double n = static_cast<double>(outs.size());
  for (const Outcome& r : outs) {
    report.values["goodput_mbps"] += r.goodput_mbps / n;
    report.values["delay_p99_ms"] += r.delay_p99_s * 1e3 / n;
    report.values["mac.successes"] += static_cast<double>(r.successes);
    report.values["mac.failures"] += static_cast<double>(r.failures);
    report.values["topology.hidden_pairs"] += static_cast<double>(r.hidden_pairs);
    report.values["traffic.arrivals"] += static_cast<double>(r.arrivals);
    report.values["traffic.drops"] += static_cast<double>(r.drops);
    const obs::MetricsRegistry counters = run_counters(r.counters);
    for (const auto& m : counters.entries()) report.values[m.name] += m.value;
  }
}

}  // namespace

void run_single_workload(const Options& opt, Report& report) {
  const Workload w = make_workload(opt.workload, opt.seed);
  report.info["scheme"] = w.front().scheme.name();
  report.info["placements"] = std::to_string(w.size());
  report.info["stations"] = std::to_string(w.front().scenario.num_stations);
  report.info["cells"] = std::to_string(w.front().scenario.cells);
  std::vector<exp::RunResult> results;
  record_outcomes(measure_reps(w, opt.seconds, opt.trace, report, results),
                  report);
  if (opt.trace) {
    // The store and journal costs of this workload's own results, under
    // distinct keys (single runs never persist; the sweep does).
    const ScratchDir dir("entries");
    std::vector<std::uint64_t> keys;
    std::vector<exp::RunResult> entries;
    for (std::uint64_t i = 0; i < 200; ++i) {
      const Shape& shape = w[i % w.size()];
      keys.push_back(exp::run_cache::key_hash(shape.scenario, shape.scheme,
                                              exp::RunOptions{}) + i);
      entries.push_back(results[i % w.size()]);
    }
    time_entry_ops(keys, entries, dir.path(), report);
  }
}

void sweep_job_setup(std::uint64_t seed, Report& report) {
  setup_rep(make_workload("sweep_job", seed).front(), report);
}

void run_sweep_job_shape(const Options& opt, Report& report) {
  const Workload w = make_workload("sweep_job", opt.seed);
  std::vector<exp::RunResult> results;
  const std::vector<Outcome> r =
      measure_reps(w, opt.seconds / 4, true, report, results);
  report.values["topology.hidden_pairs"] = static_cast<double>(r[0].hidden_pairs);
  report.values["mac.successes"] = static_cast<double>(r[0].successes);
  report.values["mac.failures"] = static_cast<double>(r[0].failures);
}

}  // namespace perfbench
