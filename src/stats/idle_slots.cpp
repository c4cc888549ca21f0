#include "stats/idle_slots.hpp"

#include <algorithm>
#include <stdexcept>

namespace wlan::stats {

IdleSlotMeter::IdleSlotMeter(sim::Duration slot, sim::Duration difs)
    : slot_(slot), difs_(difs), next_gap_ifs_(difs) {
  if (slot <= sim::Duration::zero())
    throw std::invalid_argument("IdleSlotMeter: slot must be positive");
  if (difs < sim::Duration::zero())
    throw std::invalid_argument("IdleSlotMeter: difs must be non-negative");
}

void IdleSlotMeter::maybe_sample(sim::Time now, SampleMemo* memo) {
  const sim::Time activity_end = std::max(last_activity_end_, own_tx_end_);
  const sim::Duration ifs = next_gap_ifs_;
  next_gap_ifs_ = difs_;
  if (have_prior_activity_) {
    const sim::Duration gap = now - activity_end;
    // Gaps shorter than the governing IFS (e.g. the SIFS before an ACK)
    // belong to the same transmission and are not idle-slot samples.
    if (gap >= ifs) {
      const sim::Duration span = gap - ifs;
      double slots;
      if (memo == nullptr) {
        slots = span / slot_;
      } else {
        if (memo->span_ns != span.ns() || memo->slot_ns != slot_.ns()) {
          memo->span_ns = span.ns();
          memo->slot_ns = slot_.ns();
          memo->slots = span / slot_;
        }
        slots = memo->slots;
      }
      last_sample_ = slots;
      sum_slots_ += slots;
      ++samples_;
      if (sample_cb_) sample_cb_(slots);
    }
  }
  have_prior_activity_ = true;
}

void IdleSlotMeter::on_own_tx_start(sim::Time now, sim::Duration airtime) {
  if (idle_now(now)) maybe_sample(now);
  own_tx_end_ = std::max(own_tx_end_, now + airtime);
}

void IdleSlotMeter::set_next_gap_ifs(sim::Duration ifs) {
  next_gap_ifs_ = ifs;
}

void IdleSlotMeter::set_sample_callback(std::function<void(double)> cb) {
  sample_cb_ = std::move(cb);
}

double IdleSlotMeter::average_idle_slots() const {
  return samples_ == 0 ? 0.0 : sum_slots_ / static_cast<double>(samples_);
}

void IdleSlotMeter::reset() {
  sum_slots_ = 0.0;
  last_sample_ = 0.0;
  samples_ = 0;
}

}  // namespace wlan::stats
