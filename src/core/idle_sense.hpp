// IdleSense (Heusse, Rousseau, Guillier, Duda — SIGCOMM 2005), the paper's
// strongest baseline (reference [3]).
//
// Fully distributed: each station measures n_i, the number of idle slots
// between consecutive transmissions it observes on the channel, and drives
// its contention window with AIMD so that n_i tracks a PHY-derived target
// (the paper's Section VI uses 3.1 for this OFDM configuration):
//
//     every max_trans observations:
//         if avg(n_i) < target:  CW <- CW + epsilon     (back off)
//         else:                  CW <- alpha * CW       (grab more)
//
// Stations then attempt with probability 2/(CW+1) per idle slot.
//
// The paper's Table III explains why this breaks with hidden nodes: the
// optimal idle-slot count is no longer a configuration-independent constant,
// so steering to any fixed target can be arbitrarily far from optimal.
#pragma once

#include "mac/access_strategy.hpp"

namespace wlan::core {

class IdleSenseStrategy final : public mac::FixedCwStrategy {
 public:
  struct Options {
    double target_idle_slots = 3.1;  // n_target (paper Section VI)
    double epsilon = 6.0;            // additive increase of CW
    double alpha = 1.0 / 1.0666;     // multiplicative decrease of CW
    int max_trans = 5;               // observations per AIMD update
    double initial_cw = 32.0;
    double cw_min = 2.0;
    double cw_max = 65535.0;
  };

  IdleSenseStrategy();  // default Options
  explicit IdleSenseStrategy(const Options& options);

  /// Feeds on_transmission_observed from the station's meter.
  void watch_idle_slots(stats::IdleSlotMeter& meter) override;
  /// One busy period was observed on the channel preceded by `idle_slots`
  /// idle slots.
  void on_transmission_observed(double idle_slots);

  std::string name() const override { return "IdleSense"; }

  double average_measured_idle() const;
  long updates_applied() const { return updates_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  double sum_ = 0.0;
  int count_ = 0;
  double lifetime_sum_ = 0.0;
  long lifetime_count_ = 0;
  long updates_ = 0;
};

}  // namespace wlan::core
