// Unit tests for the Medium: carrier sensing, collision resolution per
// receiver, promiscuous delivery, hidden-node overlap semantics, and the
// sensing-domain split with its derived per-node state.
#include "phy/medium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "mac/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace wlan;
using namespace wlan::phy;
using sim::Duration;
using sim::Time;

/// Records every callback with its time.
class Probe : public MediumClient {
 public:
  struct Rx {
    Frame frame;
    bool clean;
    Time t;
  };
  int busy_events = 0;
  int idle_events = 0;
  std::vector<Rx> received;
  Time last_busy = Time::zero();
  Time last_idle = Time::zero();

  void on_channel_busy(Time now) override {
    ++busy_events;
    last_busy = now;
  }
  void on_channel_idle(Time now) override {
    ++idle_events;
    last_idle = now;
  }
  void on_frame_received(const Frame& f, bool clean, Time now) override {
    received.push_back(Rx{f, clean, now});
  }
};

Frame data_frame(NodeId src, NodeId dst) {
  Frame f;
  f.kind = FrameKind::kData;
  f.src = src;
  f.dst = dst;
  f.payload_bits = 8000;
  return f;
}

/// Fully-connected 3-node fixture: AP=0, stations 1 and 2.
struct ConnectedWorld {
  sim::Simulator sim;
  DiscPropagation prop{100.0, 100.0};
  Medium medium{sim, prop};
  Probe ap, s1, s2;

  ConnectedWorld() {
    medium.add_node({0, 0}, ap);
    medium.add_node({1, 0}, s1);
    medium.add_node({2, 0}, s2);
    medium.finalize();
  }
};

TEST(Medium, CleanDeliveryToDecodableReceivers) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(100), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 1u);
  EXPECT_TRUE(w.ap.received[0].clean);
  EXPECT_EQ(w.ap.received[0].frame.src, 1);
  EXPECT_EQ(w.ap.received[0].t.ns(), 100 + 100000);
  // Promiscuous: station 2 also hears it, cleanly.
  ASSERT_EQ(w.s2.received.size(), 1u);
  EXPECT_TRUE(w.s2.received[0].clean);
  // The transmitter does not receive its own frame.
  EXPECT_TRUE(w.s1.received.empty());
}

TEST(Medium, BusyIdleCallbacksForListeners) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(50));
  });
  w.sim.run_until(Time::from_seconds(1));
  EXPECT_EQ(w.ap.busy_events, 1);
  EXPECT_EQ(w.ap.idle_events, 1);
  EXPECT_EQ(w.s2.busy_events, 1);
  EXPECT_EQ(w.s2.idle_events, 1);
  // The transmitter never senses itself.
  EXPECT_EQ(w.s1.busy_events, 0);
  EXPECT_EQ(w.s1.idle_events, 0);
  EXPECT_EQ(w.s2.last_idle.ns(), 50000);
}

TEST(Medium, IsBusyForExcludesSelf) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(50));
    EXPECT_FALSE(w.medium.is_busy_for(1));
    EXPECT_TRUE(w.medium.is_busy_for(0));
    EXPECT_TRUE(w.medium.is_busy_for(2));
    EXPECT_TRUE(w.medium.is_transmitting(1));
  });
  w.sim.run_until(Time::from_seconds(1));
  EXPECT_FALSE(w.medium.is_busy_for(0));
  EXPECT_FALSE(w.medium.is_transmitting(1));
}

TEST(Medium, OverlappingTransmissionsBothCorrupt) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.schedule_at(Time::from_ns(50'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 2u);
  EXPECT_FALSE(w.ap.received[0].clean);
  EXPECT_FALSE(w.ap.received[1].clean);
  EXPECT_EQ(w.medium.corrupt_deliveries(), 2u + 2u);  // at AP and at peers
}

TEST(Medium, SequentialTransmissionsBothClean) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.schedule_at(Time::from_ns(100'000), [&] {  // back-to-back, no overlap
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 2u);
  EXPECT_TRUE(w.ap.received[0].clean);
  EXPECT_TRUE(w.ap.received[1].clean);
}

TEST(Medium, MergedBusyPeriodSingleTransition) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.schedule_at(Time::from_ns(50'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  // The AP sees one continuous busy period [0, 150us].
  EXPECT_EQ(w.ap.busy_events, 1);
  EXPECT_EQ(w.ap.idle_events, 1);
  EXPECT_EQ(w.ap.last_idle.ns(), 150'000);
}

TEST(Medium, HalfDuplexReceiverCorrupts) {
  ConnectedWorld w;
  // Station 2 transmits to the AP while the AP itself is transmitting.
  w.sim.schedule_at(Time::from_ns(0), [&] {
    Frame ack;
    ack.kind = FrameKind::kAck;
    ack.src = 0;
    ack.dst = 1;
    w.medium.start_transmission(0, ack, Duration::microseconds(40));
  });
  w.sim.schedule_at(Time::from_ns(10'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(20));
  });
  w.sim.run_until(Time::from_seconds(1));
  // Station 2's frame ends while the AP transmits: corrupt at the AP.
  bool found = false;
  for (const auto& rx : w.ap.received) {
    if (rx.frame.src == 2) {
      found = true;
      EXPECT_FALSE(rx.clean);
    }
  }
  EXPECT_TRUE(found);
  // The ACK at station 2 is also corrupt (it transmitted during it), but
  // clean at station 1 — no, station 1 heard station 2's overlap too.
  ASSERT_FALSE(w.s1.received.empty());
  EXPECT_FALSE(w.s1.received[0].clean);
}

/// Hidden-node fixture: stations 1 and 2 cannot sense each other but both
/// reach the AP (ExplicitGraph row = source, column = observer).
struct HiddenWorld {
  sim::Simulator sim;
  ExplicitGraph prop{
      // sense: AP audible everywhere; stations mutually hidden.
      {{false, true, true}, {true, false, false}, {true, false, false}},
      // decode: same structure.
      {{false, true, true}, {true, false, false}, {true, false, false}}};
  Medium medium{sim, prop};
  Probe ap, s1, s2;

  HiddenWorld() {
    medium.add_node(graph_position(0), ap);
    medium.add_node(graph_position(1), s1);
    medium.add_node(graph_position(2), s2);
    medium.finalize();
  }
};

TEST(Medium, HiddenNodesDoNotSenseEachOther) {
  HiddenWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
    EXPECT_TRUE(w.medium.is_busy_for(0));
    EXPECT_FALSE(w.medium.is_busy_for(2));  // hidden!
  });
  w.sim.run_until(Time::from_seconds(1));
  EXPECT_EQ(w.s2.busy_events, 0);
  EXPECT_TRUE(w.s2.received.empty());  // cannot decode either
}

TEST(Medium, HiddenOverlapCorruptsAtApOnly) {
  HiddenWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  // Station 2 cannot sense station 1, so it may start mid-flight.
  w.sim.schedule_at(Time::from_ns(60'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 2u);
  EXPECT_FALSE(w.ap.received[0].clean);
  EXPECT_FALSE(w.ap.received[1].clean);
}

TEST(Medium, ApBroadcastReachesHiddenStations) {
  HiddenWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    Frame ack;
    ack.kind = FrameKind::kAck;
    ack.src = 0;
    ack.dst = 1;
    w.medium.start_transmission(0, ack, Duration::microseconds(40));
  });
  w.sim.run_until(Time::from_seconds(1));
  // Both stations decode the AP's ACK (wTOP relies on overhearing).
  ASSERT_EQ(w.s1.received.size(), 1u);
  ASSERT_EQ(w.s2.received.size(), 1u);
  EXPECT_TRUE(w.s1.received[0].clean);
  EXPECT_TRUE(w.s2.received[0].clean);
}

TEST(Medium, SensesAndDecodesQueries) {
  HiddenWorld w;
  EXPECT_TRUE(w.medium.senses(0, 1));
  EXPECT_TRUE(w.medium.senses(1, 0));
  EXPECT_FALSE(w.medium.senses(1, 2));
  EXPECT_TRUE(w.medium.decodes(2, 0));
  EXPECT_FALSE(w.medium.decodes(2, 1));
}

TEST(Medium, ThrowsOnDoubleTransmit) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
    EXPECT_THROW(w.medium.start_transmission(1, data_frame(1, 0),
                                             Duration::microseconds(100)),
                 std::logic_error);
  });
  w.sim.run_until(Time::from_seconds(1));
}

TEST(Medium, ThrowsWhenNotFinalized) {
  sim::Simulator s;
  DiscPropagation prop(10, 10);
  Medium m(s, prop);
  Probe p;
  m.add_node({0, 0}, p);
  EXPECT_THROW(m.start_transmission(0, data_frame(0, 0),
                                    Duration::microseconds(1)),
               std::logic_error);
}

TEST(Medium, ThrowsOnAddAfterFinalize) {
  ConnectedWorld w;
  Probe extra;
  EXPECT_THROW(w.medium.add_node({5, 5}, extra), std::logic_error);
}

TEST(Medium, CountsTransmissions) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(10));
  });
  w.sim.schedule_at(Time::from_ns(100'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(10));
  });
  w.sim.run_until(Time::from_seconds(1));
  EXPECT_EQ(w.medium.transmissions_started(), 2u);
}

TEST(Medium, CorruptionMarksResetWhenTxSlotReused) {
  // Regression guard for the pooled per-source TxSlot design: node 1's
  // first transmission is corrupted by an overlap; its SECOND transmission
  // reuses the same slot and must start with clean marks.
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.schedule_at(Time::from_ns(50'000), [&] {
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  // Round 2: node 1 alone, well after the collision resolved.
  w.sim.schedule_at(Time::from_ns(1'000'000), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 3u);
  EXPECT_FALSE(w.ap.received[0].clean);  // collided copy of node 1's frame
  EXPECT_FALSE(w.ap.received[1].clean);  // collided copy of node 2's frame
  EXPECT_TRUE(w.ap.received[2].clean);   // reused slot: marks were reset
}

TEST(Medium, SlotReuseStressAlternatingCorruptClean) {
  // Many reuse generations per slot: odd rounds collide, even rounds are
  // clean. Any leakage of corruption marks (or of the in-flight list's
  // swap-removal bookkeeping) across reuses breaks the expected pattern.
  ConnectedWorld w;
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    const auto base = Time::from_ns(round * 1'000'000);
    w.sim.schedule_at(base, [&] {
      w.medium.start_transmission(1, data_frame(1, 0),
                                  Duration::microseconds(100));
    });
    if (round % 2 == 1) {
      w.sim.schedule_at(base + Duration::microseconds(30), [&] {
        w.medium.start_transmission(2, data_frame(2, 0),
                                    Duration::microseconds(100));
      });
    }
  }
  w.sim.run_until(Time::from_seconds(1));
  int idx = 0;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_LT(idx, static_cast<int>(w.ap.received.size()));
    const bool expect_clean = round % 2 == 0;
    EXPECT_EQ(w.ap.received[static_cast<std::size_t>(idx)].clean,
              expect_clean)
        << "round " << round;
    idx += expect_clean ? 1 : 2;  // collision rounds deliver two frames
  }
  EXPECT_EQ(idx, static_cast<int>(w.ap.received.size()));
  EXPECT_EQ(w.medium.transmissions_started(),
            static_cast<std::uint64_t>(kRounds + kRounds / 2));
}

TEST(Medium, ThreeWayCollisionAllCorrupt) {
  ConnectedWorld w;
  w.sim.schedule_at(Time::from_ns(0), [&] {
    w.medium.start_transmission(1, data_frame(1, 0),
                                Duration::microseconds(100));
    w.medium.start_transmission(2, data_frame(2, 0),
                                Duration::microseconds(100));
  });
  w.sim.run_until(Time::from_seconds(1));
  ASSERT_EQ(w.ap.received.size(), 2u);
  EXPECT_FALSE(w.ap.received[0].clean);
  EXPECT_FALSE(w.ap.received[1].clean);
}

// --- Sensing domains --------------------------------------------------------

/// Records every carrier-sense callback, in call order, into a shared log.
class OrderProbe : public MediumClient {
 public:
  OrderProbe(NodeId self, std::vector<std::string>* log)
      : self_(self), log_(log) {}
  void on_channel_busy(Time now) override {
    log_->push_back("busy " + std::to_string(self_) + " @" +
                    std::to_string(now.ns()));
  }
  void on_channel_idle(Time now) override {
    log_->push_back("idle " + std::to_string(self_) + " @" +
                    std::to_string(now.ns()));
  }
  void on_frame_received(const Frame&, bool, Time) override {}

 private:
  NodeId self_;
  std::vector<std::string>* log_;
};

/// Forwards domain edges to the members' clients — what a DomainListener
/// promises to be equivalent to — and counts them.
class ForwardingListener : public DomainListener {
 public:
  explicit ForwardingListener(std::vector<OrderProbe>* probes)
      : probes_(probes) {}
  void on_domain_busy(std::span<const NodeId> members, NodeId source,
                      Time now) override {
    ++edges;
    for (const NodeId m : members)
      if (m != source) (*probes_)[static_cast<std::size_t>(m)].on_channel_busy(now);
  }
  void on_domain_idle(std::span<const NodeId> members, NodeId source,
                      Time now) override {
    ++edges;
    for (const NodeId m : members)
      if (m != source) (*probes_)[static_cast<std::size_t>(m)].on_channel_idle(now);
  }
  int edges = 0;

 private:
  std::vector<OrderProbe>* probes_;
};

/// One transmission of a hand-built schedule (distinct instants, so the
/// brute-force reference needs no tie rules).
struct Burst {
  std::int64_t start_us;
  NodeId src;
  std::int64_t airtime_us;
};

/// Replays `bursts` on a medium over `positions` and checks, after every
/// start and end, the callback order against the per-node cascade computed
/// by brute force (recount every node's audible in-flight sources; an edge
/// fires when that count crosses 0 <-> 1, in ascending node order), plus
/// sensed_count and the airtime split of every node.
void expect_cascade_order(const std::vector<Vec2>& positions,
                          const PropagationModel& prop,
                          const std::vector<Burst>& bursts, bool listener) {
  sim::Simulator sim;
  Medium medium(sim, prop);
  std::vector<std::string> log;
  std::vector<OrderProbe> probes;
  probes.reserve(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i)
    probes.emplace_back(static_cast<NodeId>(i), &log);
  for (std::size_t i = 0; i < positions.size(); ++i)
    medium.add_node(positions[i], probes[i]);
  medium.finalize();
  ForwardingListener forward(&probes);
  if (listener) medium.set_domain_listener(&forward);

  // Brute-force reference, stepped at every start and end instant.
  const std::size_t n = positions.size();
  struct Step {
    std::int64_t t_us;
    NodeId src;
    bool start;
  };
  std::vector<Step> steps;
  for (const Burst& b : bursts) {
    steps.push_back({b.start_us, b.src, true});
    steps.push_back({b.start_us + b.airtime_us, b.src, false});
  }
  std::sort(steps.begin(), steps.end(),
            [](const Step& a, const Step& b) { return a.t_us < b.t_us; });
  std::vector<int> count(n, 0);
  std::vector<std::string> expected;
  for (const Step& st : steps) {
    for (std::size_t o = 0; o < n; ++o) {
      if (static_cast<NodeId>(o) == st.src ||
          !medium.senses(st.src, static_cast<NodeId>(o)))
        continue;
      const std::string at = " @" + std::to_string(st.t_us * 1000);
      if (st.start && ++count[o] == 1)
        expected.push_back("busy " + std::to_string(o) + at);
      if (!st.start && --count[o] == 0)
        expected.push_back("idle " + std::to_string(o) + at);
    }
  }

  for (const Burst& b : bursts) {
    sim.schedule_at(Time::from_ns(b.start_us * 1000), [&medium, b] {
      Frame f = data_frame(b.src, 0);
      medium.start_transmission(b.src, f, Duration::microseconds(b.airtime_us));
    });
  }
  // Check the derived per-node state half-way between every two steps:
  // sensed counts and the busy/idle split against the brute-force
  // integral of [count > 0].
  std::vector<int> live(n, 0);
  std::vector<std::int64_t> busy_ns(n, 0);
  for (std::size_t k = 0; k + 1 < steps.size(); ++k) {
    if (k > 0)
      for (std::size_t o = 0; o < n; ++o)
        if (live[o] > 0) busy_ns[o] += (steps[k].t_us - steps[k - 1].t_us) * 1000;
    if (steps[k].start) {
      for (std::size_t o = 0; o < n; ++o)
        if (static_cast<NodeId>(o) != steps[k].src &&
            medium.senses(steps[k].src, static_cast<NodeId>(o)))
          ++live[o];
    } else {
      for (std::size_t o = 0; o < n; ++o)
        if (static_cast<NodeId>(o) != steps[k].src &&
            medium.senses(steps[k].src, static_cast<NodeId>(o)))
          --live[o];
    }
    const std::int64_t mid_ns = (steps[k].t_us + steps[k + 1].t_us) * 500;
    sim.run_until(Time::from_ns(mid_ns));
    for (std::size_t o = 0; o < n; ++o) {
      EXPECT_EQ(medium.sensed_count(static_cast<NodeId>(o)), live[o])
          << "node " << o << " at " << mid_ns;
      const Medium::NodeAirtime a =
          medium.node_airtime(static_cast<NodeId>(o), Time::from_ns(mid_ns));
      EXPECT_EQ(a.busy_ns + a.idle_ns, mid_ns) << "node " << o;
      const std::int64_t open =
          live[o] > 0 ? mid_ns - steps[k].t_us * 1000 : 0;
      EXPECT_EQ(a.busy_ns, busy_ns[o] + open) << "node " << o;
    }
  }
  sim.run_until(Time::from_seconds(1));
  EXPECT_FALSE(log.empty());
  EXPECT_EQ(log, expected);
  if (listener) {
    EXPECT_EQ(forward.edges, static_cast<int>(medium.domain_edges()));
  } else {
    EXPECT_EQ(forward.edges, 0);
    EXPECT_EQ(medium.sense_callbacks(), expected.size());
  }
}

TEST(SensingDomains, ConnectedCellIsOneDomain) {
  auto net = exp::build_network(exp::ScenarioConfig::connected(20, 1),
                                exp::SchemeConfig::standard());
  const Medium& m = net->medium();
  ASSERT_EQ(m.num_domains(), 1u);
  EXPECT_EQ(m.domain_members(0).size(), 21u);
  for (std::size_t s = 0; s < m.num_nodes(); ++s) {
    EXPECT_TRUE(m.single_domain_source(static_cast<NodeId>(s)));
    EXPECT_TRUE(m.closed_domain_source(static_cast<NodeId>(s)));
  }
}

TEST(SensingDomains, MulticellGivesOneDomainPerCell) {
  for (std::uint64_t seed : {1u, 7u}) {
    auto net = exp::build_network(exp::ScenarioConfig::multicell(9, 10, 40.0, seed),
                                  exp::SchemeConfig::standard());
    const Medium& m = net->medium();
    ASSERT_EQ(m.num_domains(), 9u) << "seed " << seed;
    for (std::uint32_t d = 0; d < 9; ++d) {
      const auto members = m.domain_members(d);
      EXPECT_EQ(members.size(), 11u) << "seed " << seed << " domain " << d;
      EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
      // Each cell's domain holds its AP and its ten stations.
      for (const NodeId v : members)
        EXPECT_EQ(net->medium().domain_of(v), d);
    }
    for (std::size_t s = 0; s < m.num_nodes(); ++s) {
      EXPECT_TRUE(m.single_domain_source(static_cast<NodeId>(s)));
      EXPECT_TRUE(m.closed_domain_source(static_cast<NodeId>(s)));
    }
  }
}

TEST(SensingDomains, HiddenPlacementsHaveNoSingleDomainSource) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    auto net = exp::build_network(exp::ScenarioConfig::hidden(20, 20.0, seed),
                                  exp::SchemeConfig::tora_csma());
    const Medium& m = net->medium();
    EXPECT_GT(m.num_domains(), 1u);
    for (std::size_t s = 0; s < m.num_nodes(); ++s) {
      EXPECT_FALSE(m.single_domain_source(static_cast<NodeId>(s)))
          << "seed " << seed << " source " << s;
      EXPECT_FALSE(m.closed_domain_source(static_cast<NodeId>(s)));
    }
  }
}

TEST(SensingDomains, SameHearingDifferentDecodingSharesADomain) {
  // Everyone senses everyone (sense radius 100), but the decode radius 9.5
  // leaves 0 and 2 unable to decode each other: one domain whose members
  // decode different sets.
  DiscPropagation prop(9.5, 100.0);
  const std::vector<Vec2> pos = {{0, 0}, {1, 0}, {10, 0}};
  {
    sim::Simulator sim;
    Medium medium(sim, prop);
    Probe p0, p1, p2;
    medium.add_node(pos[0], p0);
    medium.add_node(pos[1], p1);
    medium.add_node(pos[2], p2);
    medium.finalize();
    ASSERT_EQ(medium.num_domains(), 1u);
    EXPECT_TRUE(medium.decodes(1, 0));
    EXPECT_FALSE(medium.decodes(2, 0));
    EXPECT_TRUE(medium.decodes(2, 1));
    for (NodeId s = 0; s < 3; ++s) EXPECT_TRUE(medium.single_domain_source(s));
  }
  // Overlaps cross C 0->1->2->1->0 with transmitting members.
  const std::vector<Burst> bursts = {
      {10, 0, 100}, {50, 2, 100}, {120, 1, 100}, {400, 1, 50}, {600, 2, 30}};
  expect_cascade_order(pos, prop, bursts, /*listener=*/false);
  expect_cascade_order(pos, prop, bursts, /*listener=*/true);
}

TEST(SensingDomains, SourceHeardByTwoDomainsTakesThePerNodeCascade) {
  // 0,1 and 3,4 are two pairs out of each other's sense range (20); node 2
  // in the middle hears all four, so its key differs from both pairs' and
  // its transmissions reach two domains.
  DiscPropagation prop(20.0, 20.0);
  const std::vector<Vec2> pos = {{0, 0}, {1, 0}, {15.5, 0}, {30, 0}, {31, 0}};
  {
    sim::Simulator sim;
    Medium medium(sim, prop);
    std::vector<Probe> probes(pos.size());
    for (std::size_t i = 0; i < pos.size(); ++i) medium.add_node(pos[i], probes[i]);
    medium.finalize();
    ASSERT_EQ(medium.num_domains(), 3u);
    EXPECT_EQ(medium.domain_of(0), medium.domain_of(1));
    EXPECT_EQ(medium.domain_of(3), medium.domain_of(4));
    EXPECT_NE(medium.domain_of(0), medium.domain_of(3));
    EXPECT_NE(medium.domain_of(2), medium.domain_of(0));
    EXPECT_NE(medium.domain_of(2), medium.domain_of(3));
    EXPECT_FALSE(medium.single_domain_source(2));
    for (NodeId s = 0; s < 5; ++s) EXPECT_FALSE(medium.closed_domain_source(s));
  }
  const std::vector<Burst> bursts = {{10, 2, 100},  {30, 0, 200},
                                     {60, 4, 20},   {150, 3, 100},
                                     {300, 2, 50},  {320, 1, 10},
                                     {500, 0, 40},  {520, 1, 40}};
  expect_cascade_order(pos, prop, bursts, /*listener=*/false);
  expect_cascade_order(pos, prop, bursts, /*listener=*/true);
}

TEST(SensingDomains, ClosedAndOpenDomainsShareOneMedium) {
  // 0,1,2 form a cell out of everyone else's range: one closed domain.
  // 3,4,5 are a chain (3 and 5 out of each other's range): 4's frames
  // reach two domains, so all three keep per-node counts.
  DiscPropagation prop(20.0, 20.0);
  const std::vector<Vec2> pos = {{0, 0},   {1, 0},   {2, 0},
                                 {100, 0}, {115, 0}, {130, 0}};
  {
    sim::Simulator sim;
    Medium medium(sim, prop);
    std::vector<Probe> probes(pos.size());
    for (std::size_t i = 0; i < pos.size(); ++i) medium.add_node(pos[i], probes[i]);
    medium.finalize();
    ASSERT_EQ(medium.num_domains(), 4u);
    for (NodeId s = 0; s < 3; ++s) EXPECT_TRUE(medium.closed_domain_source(s));
    for (NodeId s = 3; s < 6; ++s) EXPECT_FALSE(medium.closed_domain_source(s));
  }
  // Both kinds of edge interleave in time.
  const std::vector<Burst> bursts = {{10, 0, 100},  {20, 4, 100},
                                     {40, 1, 100},  {60, 3, 200},
                                     {130, 5, 50},  {300, 2, 30},
                                     {310, 4, 10},  {500, 1, 40}};
  expect_cascade_order(pos, prop, bursts, /*listener=*/false);
  expect_cascade_order(pos, prop, bursts, /*listener=*/true);
}

}  // namespace
