// Substrate loops for the traced run: the event queue and the medium timed
// through their public APIs, in the loop shapes bench/substrate_cases.hpp
// defines for bench_micro_substrate (a warm 256-timer churn, a
// cancellation-heavy burst, a 24-node collision storm). The shapes are
// restated here so the benchmark does not move when bench/ changes.
//
// Each loop runs in batches; every batch is one sample (ns per operation),
// and perfbench/metrics.py reports the median.
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

using namespace wlan;

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x >> 33;
}

/// Warm queue of 256 pending timers; each step pops and runs the earliest,
/// every 4th step cancels a (possibly stale) tracked timer and replaces
/// it, and the population is topped back up. 24-byte captures.
class Churn {
 public:
  static constexpr std::size_t kPending = 256;

  Churn() {
    for (std::size_t i = 0; i < kPending; ++i) tracked_.push_back(sched());
  }

  void step() {
    auto fired = q_.pop();
    now_ = fired.time.ns();
    fired.callback();
    if ((step_++ & 3) == 0) {
      const std::size_t k = lcg(x_) % tracked_.size();
      q_.cancel(tracked_[k]);
      tracked_[k] = sched();
    }
    while (q_.size() < kPending) sched();
  }

  std::uint64_t fired() const { return fired_; }

 private:
  struct Payload {
    std::uint64_t* counter;
    std::uint64_t pad[2];
  };

  sim::EventId sched() {
    Payload p{&fired_, {0, 0}};
    const auto at = now_ + 1 + static_cast<std::int64_t>(lcg(x_) % 10000);
    return q_.schedule(sim::Time::from_ns(at), [p] { ++*p.counter; });
  }

  sim::EventQueue q_;
  std::uint64_t fired_ = 0;
  std::int64_t now_ = 0;
  std::uint64_t x_ = 12345;
  std::uint64_t step_ = 0;
  std::vector<sim::EventId> tracked_;
};

/// Schedule a burst, cancel ~90 % of it in pseudo-random order (repeats
/// make stale double-cancels), drain the rest. Returns operations done.
std::uint64_t cancel_round(sim::EventQueue& q, std::vector<sim::EventId>& ids,
                           std::uint64_t& x, std::uint64_t& sink) {
  const std::size_t n = ids.size();
  for (std::size_t i = 0; i < n; ++i)
    ids[i] = q.schedule(
        sim::Time::from_ns(static_cast<std::int64_t>(lcg(x) % 1000000)), [] {});
  for (std::size_t i = 0; i < n * 9 / 10; ++i) q.cancel(ids[lcg(x) % n]);
  while (!q.empty()) sink += static_cast<std::uint64_t>(q.pop().time.ns());
  return n + n * 9 / 10;
}

/// A clique where every node transmits an overlapping frame each round:
/// O(n^2) interference marking and the full carrier-sense fan-out.
class DenseMedium {
 public:
  static constexpr int kNodes = 24;

  DenseMedium() {
    clients_.resize(kNodes);
    for (int i = 0; i < kNodes; ++i)
      medium_.add_node({static_cast<double>(i), 0.0}, clients_[i]);
    medium_.finalize();
    t_ = sim_.now();
  }

  void round() {
    for (int i = 0; i < kNodes; ++i) {
      sim_.schedule_at(t_ + sim::Duration::nanoseconds(10 * i), [this, i] {
        phy::Frame f;
        f.src = i;
        f.dst = (i + 1) % kNodes;
        medium_.start_transmission(i, f, sim::Duration::microseconds(50));
      });
    }
    t_ += sim::Duration::microseconds(100);
    sim_.run_until(t_);
  }

 private:
  class NullClient : public phy::MediumClient {
   public:
    void on_channel_busy(sim::Time) override {}
    void on_channel_idle(sim::Time) override {}
    void on_frame_received(const phy::Frame&, bool, sim::Time) override {}
  };

  phy::DiscPropagation prop_{1e6, 1e6};
  sim::Simulator sim_;
  phy::Medium medium_{sim_, prop_};
  std::vector<NullClient> clients_;
  sim::Time t_;
};

constexpr int kBatches = 15;

}  // namespace

void run_micro_loops(Report& report) {
  {
    Churn churn;
    for (int i = 0; i < 100000; ++i) churn.step();  // warm
    for (int b = 0; b < kBatches; ++b) {
      constexpr int kSteps = 200000;
      const std::int64_t t0 = wall_ns();
      for (int i = 0; i < kSteps; ++i) churn.step();
      report.add_sample("sim.churn_ns_per_event",
                        static_cast<double>(wall_ns() - t0) / kSteps);
    }
    // Written out so the compiler cannot drop the loops' work.
    report.values["micro.churn_fired"] = static_cast<double>(churn.fired());
  }
  {
    sim::EventQueue q;
    std::vector<sim::EventId> ids(4096);
    std::uint64_t x = 99, sink = 0;
    cancel_round(q, ids, x, sink);  // warm
    for (int b = 0; b < kBatches; ++b) {
      std::uint64_t ops = 0;
      const std::int64_t t0 = wall_ns();
      for (int r = 0; r < 40; ++r) ops += cancel_round(q, ids, x, sink);
      report.add_sample("sim.cancel_ns_per_event",
                        static_cast<double>(wall_ns() - t0) /
                            static_cast<double>(ops));
    }
    report.values["micro.cancel_sink"] = static_cast<double>(sink % 1000);
  }
  {
    DenseMedium dense;
    for (int i = 0; i < 200; ++i) dense.round();  // warm
    for (int b = 0; b < kBatches; ++b) {
      constexpr int kRounds = 400;
      const std::int64_t t0 = wall_ns();
      for (int i = 0; i < kRounds; ++i) dense.round();
      report.add_sample("phy.dense_ns_per_tx",
                        static_cast<double>(wall_ns() - t0) /
                            (kRounds * DenseMedium::kNodes));
    }
  }
}

}  // namespace perfbench
