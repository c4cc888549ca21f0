// Interference-marking scenarios (CSR adjacency + peer index + decode-mask
// pre-filtering in phy::Medium) across topologies, schemes, RTS/CTS,
// traffic mixes, capture, and multi-cell (ESS) scenarios. Each run is
// checked against a hash recorded while the full active-list scan still
// ran beside the peer-index path and matched it bit for bit
// (golden_path_hashes.inc). The suite also checks that the peer index
// actually scans few pairs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "golden_hash.hpp"
#include "mac/network.hpp"
#include "phy/medium.hpp"

namespace {

using namespace wlan;
using exp::ScenarioConfig;
using exp::SchemeConfig;
using golden::expect_run;
using golden::series_options;

TEST(MediumDifferential, ConnectedTopologyAllSchemesBitIdentical) {
  // Fully connected: everyone is everyone's interference peer, so the
  // peer index degenerates to the full active list; CSR rows are
  // ascending, so delivery order is the real thing under test.
  for (std::uint64_t seed : {1u, 7u}) {
    const auto scenario = ScenarioConfig::connected(12, seed);
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
          SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
      expect_run("connected n=12 seed=" + std::to_string(seed), scenario,
                 scheme, series_options());
    }
  }
}

TEST(MediumDifferential, HiddenTopologyAllSchemesBitIdentical) {
  // Hidden nodes: asymmetric sensing means the decode-mask pre-filter
  // actually skips pairs — the correctness claim is that every skipped
  // corruption mark was unreadable (no receiver in the skipped source's
  // decode set).
  for (std::uint64_t seed : {3u, 11u}) {
    const auto scenario = ScenarioConfig::hidden(10, 16.0, seed);
    for (const auto& scheme :
         {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
          SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
      expect_run("hidden n=10 r=16 seed=" + std::to_string(seed), scenario,
                 scheme, series_options());
    }
  }
}

TEST(MediumDifferential, ShadowedTopologyBitIdentical) {
  // Obstacle shadowing: the decode predicate is pairwise-random, so the
  // CSR adjacency rows are irregular and the grid pre-filter must not
  // drop any shadow-surviving pair.
  const auto scenario = ScenarioConfig::shadowed(8, 0.3, 5);
  expect_run("shadowed n=8 seed=5", scenario, SchemeConfig::standard(),
             series_options());
  expect_run("shadowed n=8 seed=5", scenario, SchemeConfig::wtop_csma(),
             series_options());
}

TEST(MediumDifferential, RtsCtsExchangesBitIdentical) {
  // RTS/CTS: short control frames make marking windows tiny and frequent;
  // CTS timeouts depend on exactly which frames got corrupted.
  auto scenario = ScenarioConfig::hidden(8, 16.0, 6);
  scenario.phy.rts_threshold_bits = 0;  // every data frame uses RTS/CTS
  expect_run("hidden n=8 r=16 seed=6 rts", scenario, SchemeConfig::standard(),
             series_options());
  expect_run("hidden n=8 r=16 seed=6 rts", scenario,
             SchemeConfig::tora_csma(), series_options());
}

TEST(MediumDifferential, TrafficMixesBitIdentical) {
  // Finite sources: idle stations leave transmission gaps, so marking
  // runs against sparse active sets (the transmitting_[] skip path).
  auto poisson = ScenarioConfig::connected(8, 2);
  poisson.traffic = traffic::TrafficConfig::poisson(1.0);
  expect_run("connected n=8 seed=2 poisson", poisson,
             SchemeConfig::standard(), series_options(0.6));
  auto onoff = ScenarioConfig::hidden(8, 16.0, 4);
  onoff.traffic = traffic::TrafficConfig::on_off(2.0, 0.01, 0.03);
  expect_run("hidden n=8 r=16 seed=4 on-off", onoff, SchemeConfig::standard(),
             series_options(0.6));
}

TEST(MediumDifferential, MulticellAllSchemesBitIdentical) {
  // The ESS case the peer index exists for: many cells, finite decode
  // discs, capture enabled (multicell() sets capture_ratio = 4) — the
  // masked pass must skip exactly the capture checks whose outcome no
  // decodable receiver can observe.
  const auto scenario = ScenarioConfig::multicell(4, 6, /*spacing=*/40.0, 1);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma(),
        SchemeConfig::tora_csma(), SchemeConfig::idle_sense_scheme()}) {
    expect_run("multicell 4x6 seed=1", scenario, scheme, series_options());
  }
  // A larger, sparser plan: 9 cells on a 3x3 grid — inter-cell hidden
  // pairs dominate and most peer rows are small.
  expect_run("multicell 9x4 seed=2", ScenarioConfig::multicell(9, 4, 40.0, 2),
             SchemeConfig::standard(), series_options());
}

TEST(MediumDifferential, MulticellRtsCtsAndTrafficBitIdentical) {
  auto scenario = ScenarioConfig::multicell(4, 5, 40.0, 3);
  scenario.phy.rts_threshold_bits = 0;
  expect_run("multicell 4x5 seed=3 rts", scenario, SchemeConfig::standard(),
             series_options());
  auto bursty = ScenarioConfig::multicell(4, 5, 40.0, 4);
  bursty.traffic = traffic::TrafficConfig::poisson(2.0);
  expect_run("multicell 4x5 seed=4 poisson", bursty, SchemeConfig::standard(),
             series_options(0.6));
}

TEST(MediumDifferential, ShadowedMulticellBitIdentical) {
  // Shadowing on top of the ESS discs: the adjacency rows lose random
  // pairs, so peer rows and decode masks are irregular across cells.
  auto scenario = ScenarioConfig::multicell(4, 5, 40.0, 7);
  scenario.shadow_probability = 0.3;
  expect_run("multicell 4x5 seed=7 shadowed", scenario,
             SchemeConfig::standard(), series_options());
}

TEST(MediumDifferential, MulticellWithoutCaptureBitIdentical) {
  // capture_ratio = 0 removes the rx-power comparison entirely — the
  // masked pass must not depend on capture for its receiver filtering.
  auto scenario = ScenarioConfig::multicell(4, 6, 40.0, 5);
  scenario.phy.capture_ratio = 0.0;
  expect_run("multicell 4x6 seed=5 no-capture", scenario,
             SchemeConfig::standard(), series_options());
}

TEST(MediumDifferential, DynamicActivationBitIdentical) {
  // run_dynamic toggles stations mid-flight: the sparse-active skip
  // (transmitting_[o] check) sees populations grow and shrink.
  const auto scenario = ScenarioConfig::connected(10, 1);
  const std::vector<exp::PopulationStep> schedule{
      {0.0, 10}, {0.2, 3}, {0.4, 8}, {0.6, 10}};
  const auto total = sim::Duration::seconds(1.0);
  const auto sample = sim::Duration::seconds(0.05);
  for (const auto& scheme :
       {SchemeConfig::standard(), SchemeConfig::wtop_csma()}) {
    golden::expect_golden(
        "dynamic connected n=10 10-3-8-10 " + scheme.name(),
        exp::run_dynamic(scenario, scheme, schedule, total, sample));
  }
}

TEST(MediumDifferential, IncrementalPathActuallyScansFewer) {
  // Guard against the peer index silently degrading to an in-flight scan:
  // on a multi-cell scenario it must engage and keep the pair and check
  // counts per started transmission low. 9 cells x 6 stations, 0.5 s: the
  // peer index scans 0.143 pairs and 1.43 receiver checks per started
  // transmission; the full active-list scan it replaced scanned 7.36 and
  // 88.3 for the same run.
  const auto scenario = ScenarioConfig::multicell(9, 6, 40.0, 1);
  auto net = exp::build_network(scenario, SchemeConfig::standard());
  EXPECT_TRUE(net->medium().has_peer_index());
  net->start();
  net->run_for(sim::Duration::seconds(0.5));
  const phy::Medium& m = net->medium();
  const auto tx = static_cast<double>(m.transmissions_started());
  ASSERT_GT(tx, 0.0);
  EXPECT_LT(static_cast<double>(m.marking_pairs_scanned()) / tx, 1.0)
      << "pairs=" << m.marking_pairs_scanned() << " tx=" << tx;
  EXPECT_LT(static_cast<double>(m.interference_checks()) / tx, 10.0)
      << "checks=" << m.interference_checks() << " tx=" << tx;
}

}  // namespace
