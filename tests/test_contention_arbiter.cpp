// Tests for the cohort contention arbiter (one NAV, one DIFS and one
// decision event per same-instant cohort, rows drawn on demand). The
// scenario tests replay runs across topologies, schemes, traffic gating,
// RTS/CTS, NAV expiries and dynamic activation against hashes recorded
// while the per-station and one-event-per-slot paths still ran beside the
// arbiter and matched it bit for bit (golden_path_hashes.inc). The
// mechanism tests check that the arbiter actually merges contenders and
// keeps the host-free work counters inside their gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "golden_hash.hpp"
#include "mac/contention_arbiter.hpp"
#include "mac/network.hpp"
#include "mac/station.hpp"
#include "obs/trace.hpp"
#include "util/fnv.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;
using golden::hash_run;

using golden::expect_run;
using golden::series_options;

TEST(ContentionArbiter, ConnectedTopologyAllSchemesBitIdentical) {
  // Fully connected: every idle transition re-enters ALL contenders at the
  // same instant — maximal cohorts, plus EIFS sub-cohorts after every
  // collision.
  for (std::uint64_t seed : {1u, 7u}) {
    const auto scenario = ScenarioConfig::connected(12, seed);
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
          SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
      expect_run("connected n=12 seed=" + std::to_string(seed),
                 scenario, scheme, series_options());
    }
  }
}

TEST(ContentionArbiter, HiddenTopologyAllSchemesBitIdentical) {
  // Hidden nodes: partial busy cascades withdraw only the sensing members,
  // cohorts fragment per sensing neighbourhood, and EIFS/DIFS waits can
  // expire at coinciding instants (the entry-merge path).
  for (std::uint64_t seed : {3u, 11u}) {
    const auto scenario = ScenarioConfig::hidden(10, 16.0, seed);
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
          SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
      expect_run("hidden n=10 r=16 seed=" + std::to_string(seed),
                 scenario, scheme, series_options());
    }
  }
}

TEST(ContentionArbiter, ShadowedTopologyBitIdentical) {
  // Obstacle shadowing: hidden pairs inside a connected-looking circle.
  const auto scenario = ScenarioConfig::shadowed(8, 0.3, 5);
  expect_run("shadowed n=8 seed=5", scenario, SchemeConfig::standard(),
             series_options());
  expect_run("shadowed n=8 seed=5", scenario, SchemeConfig::wtop_csma(),
             series_options());
}

TEST(ContentionArbiter, TrafficGatedContentionBitIdentical) {
  // Finite sources: stations park in kNoData and re-enroll on arrivals at
  // arbitrary instants (cohorts of one, or joining an existing key).
  auto scenario = ScenarioConfig::connected(8, 2);
  scenario.traffic = traffic::TrafficConfig::poisson(1.0);
  expect_run("connected n=8 seed=2 poisson", scenario,
             SchemeConfig::standard(), series_options(0.6));
  auto hidden = ScenarioConfig::hidden(8, 16.0, 4);
  hidden.traffic = traffic::TrafficConfig::on_off(2.0, 0.01, 0.03);
  expect_run("hidden n=8 r=16 seed=4 on-off", hidden,
             SchemeConfig::standard(), series_options(0.6));
}

TEST(ContentionArbiter, RtsCtsExchangesBitIdentical) {
  // RTS/CTS: CTS timeouts and SIFS-deferred data starts interleave with
  // cohort boundaries.
  auto scenario = ScenarioConfig::hidden(8, 16.0, 6);
  scenario.phy.rts_threshold_bits = 0;  // every data frame uses RTS/CTS
  expect_run("hidden n=8 r=16 seed=6 rts", scenario,
             SchemeConfig::standard(), series_options());
}

TEST(ContentionArbiter, DynamicActivationBitIdentical) {
  // run_dynamic toggles stations mid-backoff: deactivation withdraws
  // members (rollback without a busy trigger), activation re-enrolls.
  const auto scenario = ScenarioConfig::connected(10, 1);
  const std::vector<exp::PopulationStep> schedule{
      {0.0, 10}, {0.2, 3}, {0.4, 8}, {0.6, 1}, {0.8, 10}};
  const auto total = sim::Duration::seconds(1.0);
  const auto sample = sim::Duration::seconds(0.05);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
        SchemeConfig::tora_csma()}) {
    golden::expect_golden(
        "dynamic connected n=10 10-3-8-1-10 " + scheme.name(),
        exp::run_dynamic(scenario, scheme, schedule, total, sample));
  }
}

TEST(ContentionArbiter, CohortsActuallyMergeContenders) {
  // A connected network must form multi-member cohorts (every idle
  // transition re-enters all backlogged stations at once) and execute few
  // events per transmission. 16 connected stations, 0.5 s: the arbiter
  // runs 3.42 events per started transmission; one event per station and
  // wait (the per-station events the arbiter replaced) ran 10.6.
  const auto scenario = ScenarioConfig::connected(16, 1);
  const auto scheme = SchemeConfig::standard();
  auto net = exp::build_network(scenario, scheme);
  ASSERT_NE(net->contention_arbiter(), nullptr);
  net->start();
  net->run_for(sim::Duration::seconds(0.5));
  const auto& stats = net->contention_arbiter()->stats();
  EXPECT_GT(stats.enrollments, 0u);
  EXPECT_GT(stats.cohorts_formed, 0u);
  // Merging is the whole point: enrollments must far exceed cohorts.
  EXPECT_GT(stats.enrollments, 4 * stats.cohorts_formed);
  EXPECT_GT(stats.decisions_fired, 0u);
  EXPECT_GT(stats.withdrawals, 0u);
  const std::uint64_t events = net->simulator().events_executed();
  const std::uint64_t tx = net->medium().transmissions_started();
  ASSERT_GT(tx, 0u);
  EXPECT_LT(static_cast<double>(events) / static_cast<double>(tx), 5.0)
      << "events=" << events << " tx=" << tx;
}

TEST(ContentionArbiter, RepeatRunsAreDeterministic) {
  const auto scenario = ScenarioConfig::hidden(10, 20.0, 9);
  const auto a =
      exp::run_scenario(scenario, SchemeConfig::tora_csma(), series_options());
  const auto b =
      exp::run_scenario(scenario, SchemeConfig::tora_csma(), series_options());
  EXPECT_EQ(hash_run(a), hash_run(b));
}

// --- NAV phase and on-demand rows -----------------------------------------
//
// The scenarios below force the paths the plain runs above reach only by
// chance: NAV cohorts that actually expire (the reserving exchange never
// completes), stations deactivated while parked on a NAV, and rows cut
// short by transmissions from outside the cohort. Each asserts that the
// mechanism really fired, then checks the recorded hashes.

/// Backoff audits summed over every station.
mac::Station::BackoffAudit total_audit(const mac::Network& net) {
  mac::Station::BackoffAudit t;
  for (int i = 0; i < net.num_stations(); ++i) {
    const auto a = net.station(i).backoff_audit();
    t.drawn += a.drawn;
    t.consumed += a.consumed;
    t.rewound += a.rewound;
    t.outstanding += a.outstanding;
  }
  return t;
}

/// One run: lifetime arbiter counters and backoff audits at
/// the end, plus the queue and audit counters at the end of `warmup_s`
/// (so ratios can skip the start-up transient).
struct CohortRun {
  mac::ContentionArbiter::Stats arbiter;
  mac::Station::BackoffAudit audit, audit_warm;
  sim::EventQueue::Stats queue, queue_warm;
};

CohortRun run_cohort_path(const ScenarioConfig& scenario,
                          const SchemeConfig& scheme, double seconds,
                          double warmup_s = 0.0) {
  auto net = exp::build_network(scenario, scheme);
  CohortRun r;
  if (net->contention_arbiter() == nullptr) {
    ADD_FAILURE() << "network built no contention arbiter";
    return r;
  }
  net->start();
  net->run_for(sim::Duration::seconds(warmup_s));
  r.queue_warm = net->simulator().queue_stats();
  r.audit_warm = total_audit(*net);
  net->run_for(sim::Duration::seconds(seconds));
  r.arbiter = net->contention_arbiter()->stats();
  r.queue = net->simulator().queue_stats();
  r.audit = total_audit(*net);
  return r;
}

std::uint64_t parked_now(const mac::ContentionArbiter::Stats& s) {
  return s.nav_parks - s.nav_expiries - s.nav_withdrawals;
}

TEST(ContentionArbiter, RtsCtsNavExpiresWhenCtsNeverArrivesBitIdentical) {
  // Hidden RTS/CTS: bystanders of an RTS reserve the whole four-way
  // exchange; when the RTS collides at the AP no CTS follows, the channel
  // stays idle and the NAV cohort's expiry event actually fires.
  auto scenario = ScenarioConfig::hidden(12, 20.0, 8);
  scenario.phy.rts_threshold_bits = 0;
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::tora_csma()}) {
    const CohortRun run = run_cohort_path(scenario, scheme, 0.5);
    EXPECT_GT(run.arbiter.nav_expiries, 0u) << scheme.name();
    EXPECT_GT(run.arbiter.nav_withdrawals, 0u) << scheme.name();
    expect_run("hidden n=12 r=20 seed=8 rts", scenario, scheme,
               series_options());
  }
}

TEST(ContentionArbiter, NavExpiresWhenAckNeverArrivesBitIdentical) {
  // Basic access, hidden pairs: a data frame collides at the AP, but a
  // bystander decoded it cleanly and parked on its SIFS + ACK NAV; the
  // ACK never comes and the NAV expiry resumes the cohort.
  const auto scenario = ScenarioConfig::hidden(12, 20.0, 5);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma()}) {
    const CohortRun run = run_cohort_path(scenario, scheme, 0.5);
    EXPECT_GT(run.arbiter.nav_expiries, 0u) << scheme.name();
    expect_run("hidden n=12 r=20 seed=5", scenario, scheme,
               series_options());
  }
}

/// Drives a connected wTOP cell to `park_at`, deactivates every station
/// (whatever phase it is in — several are parked on the data frame's NAV
/// there), reactivates them 20 ms later and runs on. Returns a hash of
/// every per-station counter and the medium's transmission count.
std::uint64_t drive_nav_deactivation(sim::Time park_at,
                                     std::uint64_t* parked_at_toggle) {
  const auto scenario = ScenarioConfig::connected(10, 3);
  auto net = exp::build_network(scenario, SchemeConfig::wtop_csma());
  net->start();
  net->run_until(park_at);
  *parked_at_toggle = parked_now(net->contention_arbiter()->stats());
  for (int i = 0; i < net->num_stations(); ++i)
    net->station(i).set_active(false);
  net->run_for(sim::Duration::milliseconds(20));
  for (int i = 0; i < net->num_stations(); ++i)
    net->station(i).set_active(true);
  net->run_for(sim::Duration::seconds(0.2));
  util::Fnv1a h;
  for (int i = 0; i < net->num_stations(); ++i) {
    const auto& c = net->counters().node(static_cast<std::size_t>(i));
    h.mix_double_word(static_cast<double>(c.data_tx_attempts));
    h.mix_double_word(static_cast<double>(c.successes));
    h.mix_double_word(static_cast<double>(c.failures));
    h.mix_double_word(static_cast<double>(c.bits_delivered));
  }
  h.mix_double_word(static_cast<double>(net->medium().transmissions_started()));
  return h.digest();
}

TEST(ContentionArbiter, DeactivationDuringNavWaitBitIdentical) {
  // Find an instant with stations parked on a NAV cohort, then toggle the
  // whole population there: set_active(false) from kIdleWait must
  // withdraw a parked member in O(1) and leave the survivors' shared
  // expiry event alone.
  sim::Time park_at;
  {
    auto net = exp::build_network(ScenarioConfig::connected(10, 3),
                                  SchemeConfig::wtop_csma());
    net->start();
    net->run_for(sim::Duration::milliseconds(50));
    const auto& stats = net->contention_arbiter()->stats();
    while (parked_now(stats) < 3) ASSERT_TRUE(net->simulator().step());
    park_at = net->simulator().now();
  }
  std::uint64_t parked = 0;
  const std::uint64_t hash = drive_nav_deactivation(park_at, &parked);
  EXPECT_GE(parked, 3u) << "no station parked on a NAV at the toggle";
  golden::expect_golden("deactivation during NAV wait connected n=10 wTOP",
                        hash);
}

TEST(ContentionArbiter, OutOfCohortStartInterruptsRowsBitIdentical) {
  // Rows drawn ahead (the first rows after entry, or after a capped
  // batch) are cut short only by a start the cohort did not decide: a
  // controller beacon, an SIFS response, or another cohort's transmitter
  // (a hidden neighbourhood, or EIFS vs DIFS entries after a collision).
  // Those must rewind exactly the undrawn boundaries.
  const auto connected = ScenarioConfig::connected(12, 4);
  const auto hidden = ScenarioConfig::hidden(12, 20.0, 2);
  for (const auto& scheme :
       {SchemeConfig::wtop_csma(), SchemeConfig::tora_csma()}) {
    for (const auto* scenario : {&connected, &hidden}) {
      const CohortRun run = run_cohort_path(*scenario, scheme, 0.5);
      EXPECT_GT(run.audit.rewound, 0u) << scheme.name();
      expect_run(scenario == &connected ? "connected n=12 seed=4"
                                        : "hidden n=12 r=20 seed=2",
                 *scenario, scheme, series_options());
    }
  }
}

// --- Host-free counter gate ------------------------------------------------
//
// Deterministic work counters (no clocks): contention must cost per
// channel edge, not per station x edge, and draw (almost) only the slots
// that elapse. Ratios over 2 simulated seconds after a 2 s warm-up,
// measured when the NAV phase and on-demand rows were introduced:
//
//                               scheduled/fired   rewound/drawn
//   connected wTOP, n = 60           1.36             0.011
//     (per-station NAV timers,
//      pre-drawn 8->64 batches)      6.94             0.66
//   hidden TORA, n = 20, r = 20      1.33             0.18
//     (same earlier design)          2.33             0.49
//
// The bounds fail the earlier design on both workloads.

void expect_counter_gate(const CohortRun& run, double max_rewound_share,
                         const char* what) {
  const std::uint64_t scheduled = run.queue.scheduled - run.queue_warm.scheduled;
  const std::uint64_t fired = run.queue.fired - run.queue_warm.fired;
  ASSERT_GT(fired, 0u);
  EXPECT_LT(static_cast<double>(scheduled) / static_cast<double>(fired), 2.0)
      << what << ": scheduled=" << scheduled << " fired=" << fired;
  const std::uint64_t drawn = run.audit.drawn - run.audit_warm.drawn;
  const std::uint64_t rewound = run.audit.rewound - run.audit_warm.rewound;
  ASSERT_GT(drawn, 0u);
  EXPECT_LT(static_cast<double>(rewound) / static_cast<double>(drawn),
            max_rewound_share)
      << what << ": rewound=" << rewound << " drawn=" << drawn;
  EXPECT_EQ(run.audit.drawn,
            run.audit.consumed + run.audit.rewound + run.audit.outstanding)
      << what << ": backoff-draw conservation";
}

TEST(ContentionArbiter, CounterGateConnectedWtopCell) {
  const CohortRun run = run_cohort_path(ScenarioConfig::connected(60, 1),
                                        SchemeConfig::wtop_csma(), 2.0, 2.0);
  expect_counter_gate(run, 0.05, "connected wTOP n=60");
  // Every data frame's bystanders share one NAV cohort.
  EXPECT_GT(run.arbiter.nav_parks, 20 * run.arbiter.nav_cohorts);
}

TEST(ContentionArbiter, CounterGateHiddenToraPlacement) {
  const CohortRun run = run_cohort_path(ScenarioConfig::hidden(20, 20.0, 1),
                                        SchemeConfig::tora_csma(), 2.0, 2.0);
  expect_counter_gate(run, 0.25, "hidden TORA n=20 r=20");
}

// --- Carrier-sense callback gate --------------------------------------------
//
// Host-free counters of phy::Medium: per-node carrier-sense callbacks and
// domain edges, over 2 simulated seconds after a 2 s warm-up. Without a
// DomainListener every edge takes the per-node cascade — one callback per
// node per busy/idle crossing.
//
//                               callbacks / started tx
//   connected wTOP, n = 60          domain edges 0.29 (gate <= 4)
//                                   per-node cascade 93
//   hidden TORA, n = 20, r = 20     per-node cascade only, 31
//                                   (no single-domain source)

struct SenseRun {
  std::uint64_t callbacks = 0;
  std::uint64_t edges = 0;
  std::uint64_t tx = 0;
};

SenseRun run_sense(const ScenarioConfig& scenario,
                   const SchemeConfig& scheme) {
  auto net = exp::build_network(scenario, scheme);
  net->start();
  net->run_for(sim::Duration::seconds(2.0));
  const phy::Medium& m = net->medium();
  SenseRun warm{m.sense_callbacks(), m.domain_edges(),
                m.transmissions_started()};
  net->run_for(sim::Duration::seconds(2.0));
  return SenseRun{m.sense_callbacks() - warm.callbacks,
                  m.domain_edges() - warm.edges,
                  m.transmissions_started() - warm.tx};
}

TEST(ContentionArbiter, SenseCallbackGateConnectedWtopCell) {
  const auto scenario = ScenarioConfig::connected(60, 1);
  const auto scheme = SchemeConfig::wtop_csma();
  const SenseRun domain = run_sense(scenario, scheme);
  ASSERT_GT(domain.tx, 0u);
  const double per_tx =
      static_cast<double>(domain.callbacks) / static_cast<double>(domain.tx);
  EXPECT_LE(per_tx, 4.0) << "callbacks=" << domain.callbacks
                         << " tx=" << domain.tx;
  EXPECT_GT(domain.edges, domain.tx) << "busy and idle edges per frame";
}

TEST(ContentionArbiter, SenseCallbackGateHiddenToraPlacement) {
  const auto scenario = ScenarioConfig::hidden(20, 20.0, 1);
  const auto scheme = SchemeConfig::tora_csma();
  const SenseRun domain = run_sense(scenario, scheme);
  ASSERT_GT(domain.tx, 0u);
  EXPECT_EQ(domain.edges, 0u) << "no single-domain source";
  // The per-node cascade's exact count, which both dispatch paths (domain
  // listener installed or not) produced when it was recorded.
  EXPECT_EQ(domain.tx, 13131u);
  EXPECT_EQ(domain.callbacks, 410434u);
}

TEST(ContentionArbiter, SenseCountersAreExported) {
  exp::RunOptions opts = series_options(0.2);
  opts.record_series = false;
  const exp::RunResult r = exp::run_scenario(ScenarioConfig::connected(10, 1),
                                             SchemeConfig::wtop_csma(), opts);
  EXPECT_EQ(r.metrics.get("medium.domains", -1.0), 1.0);
  EXPECT_GT(r.metrics.get("medium.domain_edges", -1.0), 0.0);
  EXPECT_GE(r.metrics.get("medium.sense_callbacks", -1.0), 0.0);
}

// --- Join order on domain edges ---------------------------------------------
//
// A connected cell's idle edges reach the stations as one domain edge; the
// members must still join each NAV and IFS cohort in ascending id order,
// the order of the per-node cascade they replace. Traced and untraced
// runs share the handlers, so the cohort trace records show the order.

TEST(ContentionArbiter, DomainEdgeJoinsCohortsInAscendingIdOrder) {
  auto net = exp::build_network(ScenarioConfig::connected(20, 1),
                                SchemeConfig::wtop_csma());
  obs::SimObs o(obs::category_bit(obs::kCatCohort), 1u << 20);
  net->simulator().attach_obs(&o);
  net->start();
  net->run_for(sim::Duration::seconds(0.5));
  net->simulator().attach_obs(nullptr);
  ASSERT_EQ(o.trace.dropped(), 0u);
  ASSERT_GT(net->medium().domain_edges(), 0u);

  // One group per (instant, cohort kind, wait): its joiners in order.
  struct Group {
    std::int64_t t;
    bool nav;
    std::uint64_t wait_ns;
    std::vector<std::uint32_t> nodes;
  };
  std::vector<Group> groups;
  for (const obs::TraceRecord& r : o.trace.snapshot()) {
    const bool nav = r.event == obs::ev::kNavPark;
    if (!nav && r.event != obs::ev::kCohortFormed &&
        r.event != obs::ev::kEnroll)
      continue;
    Group* g = nullptr;
    for (auto it = groups.rbegin(); it != groups.rend() && it->t == r.time_ns;
         ++it)
      if (it->nav == nav && it->wait_ns == r.a) g = &*it;
    if (g == nullptr) {
      groups.push_back(Group{r.time_ns, nav, r.a, {}});
      g = &groups.back();
    }
    g->nodes.push_back(r.node);
  }
  int large = 0;
  for (const Group& g : groups) {
    // A station whose own exchange ended at this instant enrolls first
    // (its ACK arrives before the idle edge); the edge's members follow.
    auto first = g.nodes.begin();
    if (g.nodes.size() > 1 && g.nodes[0] > g.nodes[1]) ++first;
    EXPECT_TRUE(std::is_sorted(first, g.nodes.end()))
        << (g.nav ? "NAV" : "IFS") << " cohort at " << g.t << ": " << ::testing::PrintToString(g.nodes);
    if (g.nodes.size() >= 10) ++large;
  }
  EXPECT_GT(large, 100) << "groups=" << groups.size();
}

}  // namespace
