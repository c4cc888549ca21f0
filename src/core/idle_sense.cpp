#include "core/idle_sense.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/idle_slots.hpp"

namespace wlan::core {

IdleSenseStrategy::IdleSenseStrategy() : IdleSenseStrategy(Options{}) {}

IdleSenseStrategy::IdleSenseStrategy(const Options& options)
    : FixedCwStrategy(options.initial_cw), options_(options) {
  if (options.max_trans < 1)
    throw std::invalid_argument("IdleSenseStrategy: max_trans must be >= 1");
  if (options.alpha <= 0.0 || options.alpha >= 1.0)
    throw std::invalid_argument("IdleSenseStrategy: alpha outside (0,1)");
  if (options.epsilon <= 0.0)
    throw std::invalid_argument("IdleSenseStrategy: epsilon must be > 0");
}

void IdleSenseStrategy::watch_idle_slots(stats::IdleSlotMeter& meter) {
  meter.set_sample_callback(
      [this](double slots) { on_transmission_observed(slots); });
}

void IdleSenseStrategy::on_transmission_observed(double idle_slots) {
  sum_ += idle_slots;
  lifetime_sum_ += idle_slots;
  ++lifetime_count_;
  if (++count_ < options_.max_trans) return;

  const double ni = sum_ / static_cast<double>(count_);
  sum_ = 0.0;
  count_ = 0;
  ++updates_;

  double cw = this->cw();
  if (ni < options_.target_idle_slots) {
    cw += options_.epsilon;  // too much contention: be less aggressive
  } else {
    cw *= options_.alpha;  // channel underused: be more aggressive
  }
  set_cw(std::clamp(cw, options_.cw_min, options_.cw_max));
}

double IdleSenseStrategy::average_measured_idle() const {
  return lifetime_count_ == 0
             ? 0.0
             : lifetime_sum_ / static_cast<double>(lifetime_count_);
}

}  // namespace wlan::core
