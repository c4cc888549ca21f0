// Channel-access (contention resolution) strategies — the three classes the
// paper studies (Section II):
//   1. standard exponential backoff (IEEE 802.11 DCF),
//   2. p-persistent CSMA,
//   3. RandomReset (the paper's Definition 4).
// plus a fixed-contention-window strategy used by IdleSense.
//
// A strategy answers one question per idle slot boundary — "transmit in this
// slot?" — and is notified of transmission outcomes and of parameters the AP
// broadcasts in ACKs. Strategies are pure decision objects: all timing lives
// in mac::Station, which makes each strategy unit-testable in isolation.
#pragma once

#include <memory>
#include <string>

#include "mac/wifi_params.hpp"
#include "phy/frame.hpp"
#include "util/rng.hpp"

namespace wlan::stats {
class IdleSlotMeter;
}

namespace wlan::mac {

class AccessStrategy {
 public:
  virtual ~AccessStrategy() = default;

  /// Called at each idle slot boundary while contending. True = put the
  /// frame on the air in this slot.
  virtual bool decide_transmit(util::Rng& rng) = 0;

  /// Outcome notifications for this station's own transmissions. For
  /// successes the station calls apply_params() (with own_ack=true) BEFORE
  /// on_success(), so reset draws use the freshest broadcast parameters —
  /// this matches Algorithm 2's node-side ordering.
  virtual void on_success(util::Rng& rng) = 0;
  virtual void on_failure(util::Rng& rng) = 0;

  /// Parameters observed in a cleanly received ACK. `own_ack` is true when
  /// the ACK acknowledged this station's frame. wTOP-CSMA consumes every
  /// ACK; TORA-CSMA only the station's own (Section V discussion).
  virtual void apply_params(const phy::ControlParams& params, bool own_ack,
                            util::Rng& rng);

  /// Hooks the strategy to its station's idle-slot meter, which samples
  /// the idle slots before every observed busy period. The default
  /// observes nothing (no sample callback is installed); IdleSense
  /// installs its measurement hook here.
  virtual void watch_idle_slots(stats::IdleSlotMeter& meter);

  /// Batched-backoff support (mac::Station pre-draws a run of slot
  /// decisions at backoff entry and schedules a single decision event).
  /// checkpoint_decision_state() snapshots whatever decide_transmit()
  /// mutates; restore_decision_state() rewinds to that snapshot so an
  /// interrupted batch can be replayed draw-for-draw. Strategies whose
  /// decide_transmit is stateless (p-persistent, RandomReset, fixed-CW)
  /// keep the no-op defaults. No other callback is ever invoked between a
  /// checkpoint and its restore.
  virtual void checkpoint_decision_state() {}
  virtual void restore_decision_state() {}

  /// Mean per-slot attempt probability implied by the current state
  /// (diagnostics, Figs. 9/11 time series).
  virtual double attempt_probability() const = 0;

  virtual std::string name() const = 0;
};

/// p-persistent CSMA: transmit each idle slot w.p. p, independent of
/// history (Section II). With `adaptive` set, consumes the wTOP-CSMA master
/// probability from every ACK and applies the weight transform of Lemma 1:
/// p_t = w*p / (1 + (w-1)*p).
class PPersistentStrategy final : public AccessStrategy {
 public:
  PPersistentStrategy(double initial_p, double weight, bool adaptive);

  bool decide_transmit(util::Rng& rng) override;
  void on_success(util::Rng& /*rng*/) override {}
  void on_failure(util::Rng& /*rng*/) override {}
  void apply_params(const phy::ControlParams& params, bool own_ack,
                    util::Rng& rng) override;
  double attempt_probability() const override { return p_; }
  std::string name() const override;

  double weight() const { return weight_; }
  void set_probability(double p);

  /// Changes this station's weight on the fly (Section III: "every node
  /// could dynamically change their weights and the system would still
  /// adapt"). Takes effect at the next overheard ACK/beacon.
  void set_weight(double weight);

  /// The weight transform from Lemma 1.
  static double weighted_probability(double master_p, double weight);

 private:
  double p_;
  double weight_;
  bool adaptive_;
};

/// Standard IEEE 802.11 DCF binary exponential backoff: uniform counter in
/// [0, CW_i - 1]; CW doubles on failure up to CWmax, resets to CWmin on
/// success. The counter freezes during busy periods automatically because
/// decide_transmit is only invoked at idle slot boundaries.
class StandardDcfStrategy final : public AccessStrategy {
 public:
  explicit StandardDcfStrategy(const WifiParams& params);

  bool decide_transmit(util::Rng& rng) override;
  void on_success(util::Rng& rng) override;
  void on_failure(util::Rng& rng) override;
  void checkpoint_decision_state() override;
  void restore_decision_state() override;
  double attempt_probability() const override;
  std::string name() const override { return "Standard802.11"; }

  int stage() const { return stage_; }
  std::uint64_t counter() const { return counter_; }

 private:
  void draw(util::Rng& rng);

  WifiParams params_;
  int stage_ = 0;
  std::uint64_t counter_ = 0;
  bool need_initial_draw_ = true;
  // decide_transmit() mutates only {counter_, need_initial_draw_}; the
  // checkpoint is a shadow copy of exactly that state.
  std::uint64_t saved_counter_ = 0;
  bool saved_need_initial_draw_ = true;
};

/// RandomReset(j; p0) exponential backoff (Definition 4): per idle slot the
/// station attempts w.p. 2/CW (Algorithm 2 node side); on failure the stage
/// increments (capped at m); on success the stage resets to j w.p. p0, or
/// uniformly to {j+1..m} w.p. 1-p0. With `adaptive` set, (j, p0) track the
/// values the AP broadcasts in this station's own ACKs (TORA-CSMA).
class RandomResetStrategy final : public AccessStrategy {
 public:
  RandomResetStrategy(const WifiParams& params, int reset_stage,
                      double reset_probability, bool adaptive);

  bool decide_transmit(util::Rng& rng) override;
  void on_success(util::Rng& rng) override;
  void on_failure(util::Rng& rng) override;
  void apply_params(const phy::ControlParams& params, bool own_ack,
                    util::Rng& rng) override;
  double attempt_probability() const override;
  std::string name() const override;

  int stage() const { return stage_; }
  int reset_stage() const { return reset_stage_; }
  double reset_probability() const { return reset_probability_; }

 private:
  /// The single write path for stage_: keeps attempt_p_ in step.
  void set_stage(int stage);

  WifiParams params_;
  int max_stage_;             // m (fixed by params_)
  int reset_stage_;           // j
  double reset_probability_;  // p0
  bool adaptive_;
  int stage_ = 0;  // i, current backoff stage
  // 2/CW at stage_: decide_transmit's per-slot probability, cached because
  // cw_at_stage() loops and the draw runs once per idle slot.
  double attempt_p_ = 0.0;
};

/// Fixed contention window with per-slot attempt probability 2/(CW+1) — the
/// access rule IdleSense reduces DCF to. The IdleSense controller (in
/// wlan::core) subclasses this and adapts cw() from idle-slot observations.
class FixedCwStrategy : public AccessStrategy {
 public:
  explicit FixedCwStrategy(double cw);

  bool decide_transmit(util::Rng& rng) override;
  void on_success(util::Rng& /*rng*/) override {}
  void on_failure(util::Rng& /*rng*/) override {}
  double attempt_probability() const override;
  std::string name() const override { return "FixedCW"; }

  double cw() const { return cw_; }
  void set_cw(double cw);

 private:
  double cw_;
};

}  // namespace wlan::mac
