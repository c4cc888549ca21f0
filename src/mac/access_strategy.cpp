#include "mac/access_strategy.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace wlan::mac {

void AccessStrategy::apply_params(const phy::ControlParams&, bool,
                                  util::Rng&) {}

void AccessStrategy::watch_idle_slots(stats::IdleSlotMeter&) {}

// ---------------------------------------------------------------- wTOP node

PPersistentStrategy::PPersistentStrategy(double initial_p, double weight,
                                         bool adaptive)
    : p_(initial_p), weight_(weight), adaptive_(adaptive) {
  if (initial_p < 0.0 || initial_p > 1.0)
    throw std::invalid_argument("PPersistentStrategy: p outside [0,1]");
  if (weight <= 0.0)
    throw std::invalid_argument("PPersistentStrategy: weight must be > 0");
}

double PPersistentStrategy::weighted_probability(double master_p,
                                                 double weight) {
  // Lemma 1: p_t = w p / (1 + (w-1) p) gives throughput proportional to w.
  return weight * master_p / (1.0 + (weight - 1.0) * master_p);
}

bool PPersistentStrategy::decide_transmit(util::Rng& rng) {
  return rng.bernoulli(p_);
}

void PPersistentStrategy::apply_params(const phy::ControlParams& params,
                                       bool /*own_ack*/, util::Rng&) {
  // wTOP-CSMA: every station applies the master p from every ACK it hears
  // (Algorithm 1, node side).
  if (adaptive_ && params.has_attempt_probability)
    p_ = weighted_probability(params.attempt_probability, weight_);
}

void PPersistentStrategy::set_weight(double weight) {
  if (weight <= 0.0)
    throw std::invalid_argument("PPersistentStrategy: weight must be > 0");
  weight_ = weight;
}

void PPersistentStrategy::set_probability(double p) {
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("PPersistentStrategy: p outside [0,1]");
  p_ = p;
}

std::string PPersistentStrategy::name() const {
  return adaptive_ ? "wTOP-CSMA" : "pPersistent";
}

// ------------------------------------------------------------ standard DCF

StandardDcfStrategy::StandardDcfStrategy(const WifiParams& params)
    : params_(params) {}

void StandardDcfStrategy::draw(util::Rng& rng) {
  counter_ = rng.uniform_int(
      static_cast<std::uint64_t>(params_.cw_at_stage(stage_)));
}

bool StandardDcfStrategy::decide_transmit(util::Rng& rng) {
  if (need_initial_draw_) {
    draw(rng);
    need_initial_draw_ = false;
  }
  if (counter_ == 0) return true;
  --counter_;
  return false;
}

void StandardDcfStrategy::on_success(util::Rng& rng) {
  stage_ = 0;
  draw(rng);
}

void StandardDcfStrategy::on_failure(util::Rng& rng) {
  stage_ = std::min(stage_ + 1, params_.num_backoff_stages());
  draw(rng);
}

void StandardDcfStrategy::checkpoint_decision_state() {
  saved_counter_ = counter_;
  saved_need_initial_draw_ = need_initial_draw_;
}

void StandardDcfStrategy::restore_decision_state() {
  counter_ = saved_counter_;
  need_initial_draw_ = saved_need_initial_draw_;
}

double StandardDcfStrategy::attempt_probability() const {
  // Mean attempt probability of a uniform window draw over [0, CW-1].
  return 2.0 / (params_.cw_at_stage(stage_) + 1.0);
}

// -------------------------------------------------------------- RandomReset

RandomResetStrategy::RandomResetStrategy(const WifiParams& params,
                                         int reset_stage,
                                         double reset_probability,
                                         bool adaptive)
    : params_(params),
      max_stage_(params_.num_backoff_stages()),
      reset_stage_(reset_stage),
      reset_probability_(reset_probability),
      adaptive_(adaptive) {
  if (reset_stage < 0 || reset_stage > max_stage_)
    throw std::invalid_argument("RandomResetStrategy: stage outside [0,m]");
  if (reset_probability < 0.0 || reset_probability > 1.0)
    throw std::invalid_argument("RandomResetStrategy: p0 outside [0,1]");
  set_stage(reset_stage);
}

void RandomResetStrategy::set_stage(int stage) {
  stage_ = stage;
  attempt_p_ = 2.0 / params_.cw_at_stage(stage_);
}

bool RandomResetStrategy::decide_transmit(util::Rng& rng) {
  // Algorithm 2, node side line 3: transmit w.p. 2/CW in each idle slot.
  return rng.bernoulli(attempt_p_);
}

void RandomResetStrategy::on_success(util::Rng& rng) {
  // Algorithm 2, node side line 6: i <- j w.p. p0, else uniform {j+1..m}.
  const int m = max_stage_;
  if (reset_stage_ >= m || rng.bernoulli(reset_probability_)) {
    set_stage(reset_stage_);
  } else {
    set_stage(reset_stage_ + 1 +
              static_cast<int>(rng.uniform_int(
                  static_cast<std::uint64_t>(m - reset_stage_))));
  }
}

void RandomResetStrategy::on_failure(util::Rng&) {
  set_stage(std::min(stage_ + 1, max_stage_));
}

void RandomResetStrategy::apply_params(const phy::ControlParams& params,
                                       bool own_ack, util::Rng&) {
  // TORA-CSMA: a station only needs to process its own ACKs (Section V).
  if (adaptive_ && own_ack && params.has_random_reset) {
    reset_probability_ = params.reset_probability;
    reset_stage_ =
        std::clamp(params.reset_stage, 0, max_stage_);
  }
}

double RandomResetStrategy::attempt_probability() const { return attempt_p_; }

std::string RandomResetStrategy::name() const {
  return adaptive_ ? "TORA-CSMA" : "RandomReset";
}

// ------------------------------------------------------------------ FixedCW

FixedCwStrategy::FixedCwStrategy(double cw) : cw_(cw) {
  if (cw < 1.0) throw std::invalid_argument("FixedCwStrategy: cw must be >= 1");
}

bool FixedCwStrategy::decide_transmit(util::Rng& rng) {
  return rng.bernoulli(attempt_probability());
}

double FixedCwStrategy::attempt_probability() const {
  return std::min(1.0, 2.0 / (cw_ + 1.0));
}

void FixedCwStrategy::set_cw(double cw) { cw_ = std::max(1.0, cw); }

}  // namespace wlan::mac
