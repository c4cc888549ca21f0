// Golden series-hash corpus: seeded random scenarios whose run hashes were
// recorded once and are checked in (tests/golden_corpus_hashes.inc). They
// pin the absolute results of the one contention and marking path the
// simulator has (see golden_hash.hpp for how the tables were proven).
//
// Axes: topology (connected, ESS multi-cell, hidden, shadowed) x scheme
// (standard, wTOP, TORA, IdleSense, fixed-p) x traffic (saturated,
// Poisson) x RTS/CTS x capture x dynamic activation. Every scenario is a
// pure function of its index, so the table stays valid as long as the
// simulator's behaviour does.
//
// Re-recording (only for a change that declares a behaviour change): a
// mismatch prints the full replacement line `{index, 0x...ULL},` of every
// scenario in the failing chunk; paste them into the .inc file.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "golden_hash.hpp"
#include "mac/network.hpp"
#include "obs/audit.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;

struct GoldenEntry {
  int index;
  std::uint64_t hash;
};

constexpr GoldenEntry kGolden[] = {
#include "golden_corpus_hashes.inc"
};

constexpr int kScenarios = sizeof(kGolden) / sizeof(kGolden[0]);
constexpr int kChunk = 20;

/// splitmix64: the scenario generator's own stream, independent of the
/// simulator's RNG so that the corpus definition never moves with it.
struct Gen {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int pick(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  bool coin() { return (next() & 1u) != 0; }
};

struct CorpusCase {
  ScenarioConfig scenario;
  SchemeConfig scheme;
  bool dynamic = false;
  std::string label;
};

CorpusCase make_case(int index) {
  Gen g{0xC0FFEEULL * 1000003ULL + static_cast<std::uint64_t>(index)};
  CorpusCase c;
  const std::uint64_t seed = 1 + g.next() % 1000;
  std::string topo;
  switch (index % 4) {  // topology rotates so every axis meets every other
    case 0:
      c.scenario = ScenarioConfig::connected(4 + g.pick(40), seed);
      topo = "connected";
      break;
    case 1:
      c.scenario = ScenarioConfig::multicell(2 + g.pick(3), 3 + g.pick(5),
                                             g.coin() ? 40.0 : 24.0, seed);
      topo = "multicell";
      break;
    case 2:
      c.scenario = ScenarioConfig::hidden(6 + g.pick(14),
                                          g.coin() ? 16.0 : 20.0, seed);
      topo = "hidden";
      break;
    default:
      c.scenario = ScenarioConfig::shadowed(5 + g.pick(10), 0.3, seed);
      topo = "shadowed";
      break;
  }
  std::string scheme;
  switch ((index / 4) % 5) {
    case 0:
      c.scheme = SchemeConfig::standard();
      scheme = "std";
      break;
    case 1:
      c.scheme = SchemeConfig::wtop_csma();
      scheme = "wtop";
      break;
    case 2:
      c.scheme = SchemeConfig::tora_csma();
      scheme = "tora";
      break;
    case 3:
      c.scheme = SchemeConfig::idle_sense_scheme();
      scheme = "idlesense";
      break;
    default:
      c.scheme = SchemeConfig::fixed_p_persistent(0.02 + 0.01 * g.pick(8));
      scheme = "fixedp";
      break;
  }
  const bool poisson = g.pick(3) == 0;
  if (poisson)
    c.scenario.traffic = traffic::TrafficConfig::poisson(0.5 + 0.5 * g.pick(6));
  const bool rts = g.pick(4) == 0;
  if (rts) c.scenario.phy.rts_threshold_bits = 0;
  const bool capture = g.pick(4) == 0;
  if (capture) c.scenario.phy.capture_ratio = 4.0;
  c.dynamic = !poisson && g.pick(5) == 0;
  c.label = std::to_string(index) + " " + topo + " n=" +
            std::to_string(c.scenario.num_stations) + " " + scheme +
            (poisson ? " poisson" : " saturated") + (rts ? " rts" : "") +
            (capture ? " capture" : "") + (c.dynamic ? " dynamic" : "") +
            " seed=" + std::to_string(seed);
  return c;
}

using golden::hash_result;

std::uint64_t run_case(const CorpusCase& c) {
  if (c.dynamic) {
    const int n = c.scenario.num_stations;
    const std::vector<exp::PopulationStep> schedule = {
        {0.0, std::max(1, n / 2)}, {0.2, n}, {0.4, std::max(1, n / 3)},
        {0.6, n}};
    return hash_result(exp::run_dynamic(c.scenario, c.scheme, schedule,
                                        sim::Duration::seconds(0.8),
                                        sim::Duration::seconds(0.05)));
  }
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.1);
  opts.measure = sim::Duration::seconds(0.6);
  opts.sample_period = sim::Duration::seconds(0.05);
  opts.record_series = true;
  return hash_result(exp::run_scenario(c.scenario, c.scheme, opts));
}

/// Replays one chunk of the corpus.
void replay_chunk(int chunk) {
  std::string replacement;
  bool mismatch = false;
  for (int i = chunk * kChunk; i < std::min(kScenarios, (chunk + 1) * kChunk);
       ++i) {
    ASSERT_EQ(kGolden[i].index, i) << "golden table out of order";
    const CorpusCase c = make_case(i);
    const std::uint64_t got = run_case(c);
    char line[96];
    std::snprintf(line, sizeof line, "{%d, 0x%016llxULL},  // ", i,
                  static_cast<unsigned long long>(got));
    replacement += line + c.label + "\n";
    if (got != kGolden[i].hash) {
      mismatch = true;
      ADD_FAILURE() << "scenario " << c.label << ": hash changed";
    }
  }
  if (mismatch) ADD_FAILURE() << "replacement lines:\n" << replacement;
}

TEST(GoldenCorpus, CoversEveryAxis) {
  ASSERT_EQ(kScenarios, 12 * kChunk);
  int topo[4] = {}, scheme[5] = {}, poisson = 0, rts = 0, capture = 0,
      dynamic = 0;
  for (int i = 0; i < kScenarios; ++i) {
    const CorpusCase c = make_case(i);
    ++topo[i % 4];
    ++scheme[(i / 4) % 5];
    poisson += !c.scenario.traffic.saturated();
    rts += c.scenario.phy.rts_threshold_bits == 0;
    capture += c.scenario.phy.capture_ratio > 0.0 ? 1 : 0;
    dynamic += c.dynamic;
  }
  for (int t : topo) EXPECT_GE(t, 40);
  for (int s : scheme) EXPECT_GE(s, 40);
  EXPECT_GE(poisson, 20);
  EXPECT_GE(rts, 20);
  EXPECT_GE(capture, 20);
  EXPECT_GE(dynamic, 10);
}

// --- Audit soak -----------------------------------------------------------
//
// Every fourth corpus scenario, stepped event by event with the
// conservation auditors in throw mode, checked every 16 events: the
// per-node sensed counts the medium derives from its domain counts
// against a brute-force recount, the per-node airtime split against
// elapsed time, and backoff-draw conservation per station. The corpus
// replay itself then runs with the auditors attached at every sample
// point and must still land on the recorded hashes.

struct AuditGuard {
  explicit AuditGuard(int v) { obs::AuditSet::set_override(v); }
  ~AuditGuard() { obs::AuditSet::set_override(-1); }
};

TEST(GoldenCorpus, AuditSoakDerivedCountsMatchBruteForce) {
  std::uint64_t checks = 0;
  for (int i = 0; i < kScenarios; i += 4) {
    const CorpusCase c = make_case(i);
    auto net = exp::build_network(c.scenario, c.scheme);
    net->start();
    obs::AuditSet audit(/*throw_on_violation=*/true);
    const sim::Time end = sim::Time::from_seconds(0.15);
    std::uint64_t events = 0;
    while (net->simulator().now() < end && net->simulator().step()) {
      if (++events % 16 != 0) continue;
      ASSERT_NO_THROW(audit.check(*net)) << c.label;
    }
    ASSERT_NO_THROW(audit.check(*net)) << c.label;
    EXPECT_TRUE(audit.ok()) << c.label;
    checks += audit.checks_run();
  }
  EXPECT_GT(checks, 1000u);
}

TEST(GoldenCorpus, AuditThrowModeReplayKeepsHashes) {
  AuditGuard throwing(2);
  for (int i = 1; i < kScenarios; i += 6) {
    const CorpusCase c = make_case(i);
    std::uint64_t got = 0;
    ASSERT_NO_THROW(got = run_case(c)) << c.label;
    EXPECT_EQ(got, kGolden[i].hash) << c.label;
  }
}

// --- Derived per-node state ------------------------------------------------
//
// The run hashes above cover what a RunResult reports. The medium also
// answers per-node questions no result depends on directly: every
// station's idle-slot meter, every node's airtime split and sensed count.
// Those are pinned by a second recorded table (tests/
// golden_state_hashes.inc, every third non-dynamic scenario, 0.2 s from
// start).

constexpr GoldenEntry kGoldenState[] = {
#include "golden_state_hashes.inc"
};

std::uint64_t hash_state(mac::Network& net) {
  util::Fnv1a h;
  const sim::Time now = net.simulator().now();
  for (int k = 0; k < net.num_stations(); ++k) {
    const auto& m = net.station(k).idle_meter();
    h.mix_u64_word(m.samples());
    h.mix_double_word(m.average_idle_slots());
    h.mix_double_word(m.last_idle_slots());
  }
  for (int c = 0; c < net.num_aps(); ++c) {
    h.mix_u64_word(net.ap(c).idle_meter().samples());
    h.mix_double_word(net.ap(c).idle_meter().average_idle_slots());
  }
  const phy::Medium& medium = net.medium();
  for (std::size_t n = 0; n < medium.num_nodes(); ++n) {
    const auto id = static_cast<phy::NodeId>(n);
    const phy::Medium::NodeAirtime a = medium.node_airtime(id, now);
    h.mix_u64_word(static_cast<std::uint64_t>(a.busy_ns));
    h.mix_u64_word(static_cast<std::uint64_t>(a.idle_ns));
    h.mix_u64_word(static_cast<std::uint64_t>(medium.sensed_count(id)));
  }
  h.mix_u64_word(medium.transmissions_started());
  h.mix_u64_word(medium.corrupt_deliveries());
  return h.digest();
}

TEST(GoldenCorpus, PerNodeStateMatchesRecording) {
  std::string replacement;
  bool mismatch = false;
  std::size_t next = 0;
  for (int i = 0; i < kScenarios; i += 3) {
    const CorpusCase c = make_case(i);
    if (c.dynamic) continue;
    auto net = exp::build_network(c.scenario, c.scheme);
    net->start();
    net->run_for(sim::Duration::seconds(0.2));
    const std::uint64_t got = hash_state(*net);
    char line[96];
    std::snprintf(line, sizeof line, "{%d, 0x%016llxULL},  // ", i,
                  static_cast<unsigned long long>(got));
    replacement += line + c.label + "\n";
    const bool recorded = next < std::size(kGoldenState) &&
                          kGoldenState[next].index == i;
    const std::uint64_t want = recorded ? kGoldenState[next].hash : 0;
    if (recorded) ++next;
    if (got != want) {
      mismatch = true;
      ADD_FAILURE() << "scenario " << c.label << ": per-node state changed";
    }
  }
  EXPECT_EQ(next, std::size(kGoldenState)) << "unused recorded entries";
  EXPECT_GT(next, 50u);
  if (mismatch) ADD_FAILURE() << "replacement lines:\n" << replacement;
}

// --- Driver-shaped points ---------------------------------------------------
//
// Short points of the bench drivers whose CSVs CI once byte-compared
// across the per-slot, per-station and full-scan paths: each driver's own
// scenario and scheme construction, run for less simulated time, checked
// against golden_path_hashes.inc.

exp::RunOptions driver_options() {
  exp::RunOptions opts;
  opts.warmup = sim::Duration::seconds(0.2);
  opts.measure = sim::Duration::seconds(0.8);
  opts.sample_period = sim::Duration::seconds(0.1);
  opts.record_series = true;
  return opts;
}

TEST(GoldenCorpus, DriverFig04HiddenPPersistentPoint) {
  // fig04_ppersistent_hidden_curve: fixed p = exp(-4.9), a point of the
  // fast log(p) grid near the curve's peak.
  for (const int n : {20, 40}) {
    golden::expect_run("fig04 hidden n=" + std::to_string(n) + " r=16 seed=1",
                       ScenarioConfig::hidden(n, 16.0, 1),
                       SchemeConfig::fixed_p_persistent(std::exp(-4.9)),
                       driver_options());
  }
}

TEST(GoldenCorpus, DriverFig0809DynamicWtop) {
  // fig08_09_wtop_dynamic: 60 stations, population 10 -> 40 -> 20 -> 60,
  // connected and hidden.
  const std::vector<exp::PopulationStep> schedule{
      {0.0, 10}, {0.4, 40}, {0.8, 20}, {1.2, 60}};
  golden::expect_golden(
      "fig08_09 dynamic connected n=60 wTOP",
      exp::run_dynamic(ScenarioConfig::connected(60, 1),
                       SchemeConfig::wtop_csma(), schedule,
                       sim::Duration::seconds(1.6),
                       sim::Duration::seconds(0.1)));
  golden::expect_golden(
      "fig08_09 dynamic hidden n=60 r=16 wTOP",
      exp::run_dynamic(ScenarioConfig::hidden(60, 16.0, 1),
                       SchemeConfig::wtop_csma(), schedule,
                       sim::Duration::seconds(1.6),
                       sim::Duration::seconds(0.1)));
}

TEST(GoldenCorpus, DriverRtsCtsHiddenRts) {
  // ext_rtscts_tradeoff: hidden RTS/CTS column, where NAV cohorts expire
  // most (RTS reservations whose CTS never comes).
  auto scenario = ScenarioConfig::hidden(20, 16.0, 1);
  scenario.phy.rts_threshold_bits = 0;
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::tora_csma()}) {
    golden::expect_run("rtscts hidden n=20 r=16 seed=1 rts", scenario, scheme,
                       driver_options());
  }
}

TEST(GoldenCorpus, DriverFig07HiddenR20Tora) {
  // fig07_hidden_r20_comparison: TORA-CSMA on the r = 20 disc, where rows
  // are cut short by hidden starts.
  for (const int n : {20, 40}) {
    golden::expect_run("fig07 hidden n=" + std::to_string(n) + " r=20 seed=1",
                       ScenarioConfig::hidden(n, 20.0, 1),
                       SchemeConfig::tora_csma(), driver_options());
  }
}

TEST(GoldenCorpus, DriverLoadDelayDcfPoisson) {
  // ext_load_delay_curve: standard DCF (the checkpoint/restore path) on 10
  // connected stations with Poisson arrivals, below and near the knee.
  for (const double load : {1.6, 2.8}) {
    auto scenario = ScenarioConfig::connected(10, 1);
    scenario.traffic = traffic::TrafficConfig::poisson(load);
    golden::expect_run("load_delay connected n=10 poisson " +
                           std::to_string(load),
                       scenario, SchemeConfig::standard(), driver_options());
  }
}

TEST(GoldenCorpus, DriverMulticellPlanWithCapture) {
  // ext_multicell_scaling: the 4 x 25 plan of the perf table (capture on,
  // as multicell() sets it) and the 4 x 10 science plan under both schemes.
  golden::expect_run("multicell 4x25 seed=1",
                     ScenarioConfig::multicell(4, 25, 40.0, 1),
                     SchemeConfig::standard(), driver_options());
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma()}) {
    golden::expect_run("multicell 4x10 seed=1",
                       ScenarioConfig::multicell(4, 10, 40.0, 1), scheme,
                       driver_options());
  }
}

TEST(GoldenCorpus, Chunk0) { replay_chunk(0); }
TEST(GoldenCorpus, Chunk1) { replay_chunk(1); }
TEST(GoldenCorpus, Chunk2) { replay_chunk(2); }
TEST(GoldenCorpus, Chunk3) { replay_chunk(3); }
TEST(GoldenCorpus, Chunk4) { replay_chunk(4); }
TEST(GoldenCorpus, Chunk5) { replay_chunk(5); }
TEST(GoldenCorpus, Chunk6) { replay_chunk(6); }
TEST(GoldenCorpus, Chunk7) { replay_chunk(7); }
TEST(GoldenCorpus, Chunk8) { replay_chunk(8); }
TEST(GoldenCorpus, Chunk9) { replay_chunk(9); }
TEST(GoldenCorpus, Chunk10) { replay_chunk(10); }
TEST(GoldenCorpus, Chunk11) { replay_chunk(11); }

}  // namespace
