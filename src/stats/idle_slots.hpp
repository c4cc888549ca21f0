// Idle-slot accounting (Table III and the IdleSense controller).
//
// "Average idle slots per transmission" = mean number of idle backoff slots
// separating consecutive channel activity periods, as observed by one radio.
// IdleSense steers this quantity to a fixed target; the paper's Table III
// shows that the OPTIMAL value varies with the hidden-node configuration,
// which is exactly why IdleSense breaks down there.
//
// Subtleties handled here:
//  * A radio does not sense its own transmissions, so own-tx periods are
//    merged into the observed activity explicitly (on_own_tx_start).
//  * The SIFS gap between a data frame and its ACK separates two busy
//    periods that belong to ONE transmission; gaps shorter than DIFS are
//    treated as continuations, not samples (per 802.11, a new contention
//    can only begin after a DIFS of idle).
//  * With hidden nodes, overlapping transmissions merge into a single busy
//    period at the observer — which is also what real carrier sensing sees.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "sim/time.hpp"

namespace wlan::stats {

class IdleSlotMeter {
 public:
  IdleSlotMeter(sim::Duration slot, sim::Duration difs);

  /// One busy edge seen by a group of meters (a sensing domain's
  /// members): meters sampling the same idle span share one division
  /// (same operands, so the same double).
  struct SampleMemo {
    std::int64_t span_ns = -1;
    std::int64_t slot_ns = 0;
    double slots = 0.0;
  };

  // The edge handlers run for every radio on every busy/idle edge, so
  // they are inline.

  /// Sensed channel went idle -> busy at `now`.
  void on_sensed_busy(sim::Time now, SampleMemo* memo = nullptr) {
    if (idle_now(now)) maybe_sample(now, memo);
    sensed_busy_ = true;
  }

  /// Sensed channel went busy -> idle at `now`.
  void on_sensed_idle(sim::Time now) {
    sensed_busy_ = false;
    last_activity_end_ = std::max(last_activity_end_, now);
  }

  /// This radio started transmitting at `now` for `airtime` (radios do not
  /// sense their own transmissions, so this must be reported explicitly).
  void on_own_tx_start(sim::Time now, sim::Duration airtime);

  /// The idle gap currently open (or about to open) is governed by `ifs`
  /// instead of DIFS — used when the preceding busy period ended in an
  /// undecodable frame, after which 802.11 stations wait EIFS. Without
  /// this, post-collision samples would read ~(EIFS-DIFS)/slot idle slots
  /// too high, which in turn would drive IdleSense's AIMD into a
  /// death spiral under collision load. Reverts to DIFS after one sample.
  void set_next_gap_ifs(sim::Duration ifs);

  /// Invoked with each completed idle-gap sample (in slots). Optional.
  void set_sample_callback(std::function<void(double)> cb);

  std::uint64_t samples() const { return samples_; }
  double average_idle_slots() const;
  double last_idle_slots() const { return last_sample_; }

  /// Forgets accumulated samples (keeps the current channel phase).
  void reset();

 private:
  bool idle_now(sim::Time now) const {
    return !sensed_busy_ && now >= own_tx_end_;
  }
  void maybe_sample(sim::Time now, SampleMemo* memo = nullptr);

  sim::Duration slot_;
  sim::Duration difs_;
  sim::Duration next_gap_ifs_;
  bool sensed_busy_ = false;
  bool have_prior_activity_ = false;
  sim::Time own_tx_end_ = sim::Time::zero();
  sim::Time last_activity_end_ = sim::Time::zero();
  double sum_slots_ = 0.0;
  double last_sample_ = 0.0;
  std::uint64_t samples_ = 0;
  std::function<void(double)> sample_cb_;
};

}  // namespace wlan::stats
