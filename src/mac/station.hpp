// A saturated 802.11 station: the DCF timing state machine.
//
// The station always has a frame for the AP (saturated model, Section II).
// Its lifecycle per frame:
//
//   (channel idle for DIFS) -> slotted contention: at each slot boundary ask
//   the AccessStrategy whether to transmit -> transmit -> wait for ACK ->
//   on ACK: success; on timeout: failure -> strategy notified -> repeat.
//
// When the payload exceeds WifiParams::rts_threshold_bits the exchange is
// prefixed with RTS -> (SIFS) CTS -> (SIFS) DATA; a missing CTS counts as a
// failure just like a missing ACK. Every station maintains a NAV (virtual
// carrier sense) from the duration fields of overheard RTS/CTS/DATA frames,
// which is what protects the data frame from hidden transmitters.
//
// Contention pauses whenever the sensed channel goes busy and resumes with a
// fresh DIFS wait at the next idle transition — which yields standard DCF
// freeze semantics for counter-based strategies (counters persist inside the
// strategy) and is immaterial for memoryless ones.
//
// Slot decisions. The model is slotted: after DIFS/EIFS, the station makes
// one decide_transmit draw at every idle slot boundary until it draws
// "transmit". No event runs per slot. The station hands its whole idle
// wait — NAV expiry, DIFS/EIFS, backoff — to a mac::ContentionArbiter,
// which groups stations entering the same wait at the same instant into
// cohorts and asks for one draw (one row) at a time via cohort_draw(). The
// arbiter stops at the cohort's first transmitter, and after a commit row
// draws nothing until the next boundary actually arrives. The batch fields
// below describe the rows drawn since the last boundary. A busy
// interruption rewinds the RNG + strategy checkpoint and replays exactly
// the draws the model makes before that instant (rollback_backoff()), and
// finds nothing to rewind when elapsed slots == drawn slots.
//
// Traffic gating: with a traffic::TrafficSource attached the station only
// contends while the source's queue holds a packet; it parks in kNoData
// otherwise and the source wakes it on the empty -> non-empty transition.
// An ACK completes the head packet (recording its queueing + access + ACK
// delay). Without a source (the default) the station is saturated and the
// code path is unchanged.
//
// Same-instant semantics: a station that decides to transmit at slot
// boundary t commits immediately (state -> Transmitting) but the radio
// starts via an event scheduled at the same time t. All slot decisions at t
// therefore happen before any of the resulting carrier-sense updates, so two
// aligned stations picking the same slot collide — as they do in reality,
// where CCA cannot see a transmission that starts in the same slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "mac/access_strategy.hpp"
#include "mac/wifi_params.hpp"
#include "obs/trace.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "stats/counters.hpp"
#include "stats/idle_slots.hpp"
#include "util/rng.hpp"

namespace wlan::traffic {
class TrafficSource;
}

namespace wlan::mac {

class ContentionArbiter;
struct ArbiterCohort;

/// The NAV and IFS cohorts the previous member of one idle domain edge
/// joined: a member bound for the same one appends without a search.
struct JoinHint {
  ArbiterCohort* nav = nullptr;
  ArbiterCohort* ifs = nullptr;
};

class Station final : public phy::MediumClient {
 public:
  Station(sim::Simulator& simulator, phy::Medium& medium,
          const WifiParams& params, std::unique_ptr<AccessStrategy> strategy,
          util::Rng rng);

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  /// Wires up ids after Medium registration; must precede start().
  void attach(phy::NodeId self, phy::NodeId ap,
              stats::NodeCounters* counters);

  /// Attaches a finite traffic source (not owned; must outlive the
  /// station). Must precede start(). nullptr (default) = saturated.
  void set_traffic_source(traffic::TrafficSource* source);

  /// Hands the station's NAV, DIFS/EIFS and backoff waits to the cohort
  /// arbiter (not owned; must outlive the station). Required; must
  /// precede start().
  void set_contention_arbiter(ContentionArbiter* arbiter);

  /// Begins contending at the current simulation time.
  void start();

  /// Activation control for dynamic scenarios (Figs. 8-11). Deactivating
  /// lets any in-flight exchange finish, then stops contending; activating
  /// re-enters contention.
  void set_active(bool active);
  bool active() const { return active_; }

  AccessStrategy& strategy() { return *strategy_; }
  const AccessStrategy& strategy() const { return *strategy_; }

  /// Idle-slot observations as seen by this station (drives IdleSense).
  const stats::IdleSlotMeter& idle_meter() const { return idle_meter_; }
  stats::IdleSlotMeter& idle_meter() { return idle_meter_; }

  phy::NodeId id() const { return self_; }

  // phy::MediumClient:
  void on_channel_busy(sim::Time now) override;
  void on_channel_idle(sim::Time now) override;
  void on_frame_received(const phy::Frame& frame, bool clean,
                         sim::Time now) override;

  /// A domain edge (phy::DomainListener, see mac::Network): the handler
  /// above for every station in `members` except `source`, in the given
  /// ascending order. Node id `first_id + i` is stations[i]. The members
  /// share one SampleMemo (busy) or JoinHint (idle), and the handlers are
  /// inlined into the loop.
  static void on_domain_busy(Station* stations, phy::NodeId first_id,
                             std::span<const phy::NodeId> members,
                             phy::NodeId source, sim::Time now);
  static void on_domain_idle(Station* stations, phy::NodeId first_id,
                             std::span<const phy::NodeId> members,
                             phy::NodeId source, sim::Time now);

  /// Lifetime backoff-draw accounting (pure counters, no behaviour). The
  /// conservation law obs::AuditSet checks:
  ///   drawn == consumed + rewound + outstanding
  /// where every decide_transmit() draw is `drawn` when made, `consumed`
  /// once its slot boundary elapsed (or it was replayed by a rollback),
  /// `rewound` when a busy interruption proved it premature, and
  /// `outstanding` while its batch is still pending.
  struct BackoffAudit {
    std::uint64_t drawn = 0;
    std::uint64_t consumed = 0;
    std::uint64_t rewound = 0;
    std::uint64_t outstanding = 0;
  };
  BackoffAudit backoff_audit() const;

 private:
  enum class State {
    kInactive,     // deactivated, not contending
    kNoData,       // traffic queue empty; parked until an arrival
    kIdleWait,     // channel (or NAV) busy; waiting to go idle
    kDifsWait,     // channel idle; DIFS timer running
    kBackoff,      // channel idle; in a backoff cohort
    kTransmitting, // own frame (RTS or data) on the air (committed)
    kWaitCts,      // RTS sent; CTS timer running
    kWaitAck,      // data sent; ACK timer running
  };

  friend class ContentionArbiter;

  /// The single write path for state_: every transition goes through here
  /// so the obs trace sees them all (and sees them nowhere else).
  void set_state(State next) {
    WLAN_OBS_POINT(sim_, obs::kCatStation, obs::ev::kStateChange, self_,
                   static_cast<std::uint64_t>(state_),
                   static_cast<std::uint64_t>(next));
    state_ = next;
  }

  /// The channel handlers; `memo` / `hint` are shared by the members of
  /// one domain edge, nullptr for a lone callback.
  void channel_busy(sim::Time now, stats::IdleSlotMeter::SampleMemo* memo);
  void channel_idle(sim::Time now, JoinHint* hint);
  void resume_contention(JoinHint* hint = nullptr);
  /// NAV-expiry body (the arbiter's NAV cohort): re-check the channel if
  /// still waiting on it.
  void nav_expired();
  void begin_ifs_wait(JoinHint* hint);
  // Arbiter hooks: the arbiter owns the timer events and decides how many
  // rows to draw; the station keeps every draw and all rollback machinery.
  /// DIFS/EIFS expired: enter backoff with an empty batch at this instant.
  void cohort_enter_backoff();
  /// Draws the next row's decision of the current batch (checkpointing
  /// on the batch's first draw); true = transmit at that row.
  bool cohort_draw();
  /// Rewinds every draw of a batch begun at this instant (entry merge).
  void cohort_discard_batch();
  /// The batch's last row is due: commit (returns true; the station
  /// leaves the cohort) or start an empty batch here (returns false).
  bool cohort_decision();
  void rollback_backoff(bool boundary_draw_counts);
  void commit_transmission();
  void radio_transmit();
  void transmit_data_frame(bool slot_committed);
  void cts_timeout();
  void ack_timeout();
  void finish_exchange();
  void observe_nav(const phy::Frame& frame, sim::Time now);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  WifiParams params_;
  sim::Duration eifs_;  // params_.eifs(), read on every EIFS-governed wait
  std::unique_ptr<AccessStrategy> strategy_;
  util::Rng rng_;

  phy::NodeId self_ = phy::kInvalidNode;
  phy::NodeId ap_ = phy::kInvalidNode;
  stats::NodeCounters* counters_ = nullptr;

  State state_ = State::kInactive;
  bool active_ = false;
  traffic::TrafficSource* traffic_ = nullptr;
  ContentionArbiter* arbiter_ = nullptr;
  /// Backoff-batch bookkeeping: boundaries sit at backoff_origin_ + i*slot
  /// (i = 1..batch_planned_); the outcome of the last drawn boundary is
  /// batch_transmit_, and backoff_rng_ / the strategy checkpoint rewind
  /// an interrupted batch.
  sim::Time backoff_origin_ = sim::Time::zero();
  int batch_planned_ = 0;
  bool batch_transmit_ = false;
  util::Rng backoff_rng_{0};
  sim::EventId cts_timeout_event_;
  sim::EventId ack_timeout_event_;
  sim::Time nav_until_ = sim::Time::zero();
  std::uint64_t next_seq_ = 0;
  /// Set when the last observed busy period ended in an undecodable frame;
  /// the next idle wait then uses EIFS instead of DIFS (IEEE 802.11).
  bool eifs_pending_ = false;
  /// Backoff-draw conservation counters (see BackoffAudit). audit_consumed_
  /// doubles as the lifetime elapsed-backoff-slot count the flight
  /// recorder's per-attempt slot deltas are computed from.
  std::uint64_t audit_drawn_ = 0;
  std::uint64_t audit_consumed_ = 0;
  std::uint64_t audit_rewound_ = 0;
  /// Label of the arbiter cohort this station last entered backoff under
  /// (0: none yet). Written by ContentionArbiter (friend).
  std::uint64_t cohort_id_ = 0;
  /// The arbiter cohort (NAV, IFS or backoff phase) holding this station
  /// and its slot there, or nullptr; owned by ContentionArbiter (friend).
  ArbiterCohort* cohort_ = nullptr;
  std::size_t cohort_slot_ = 0;
  stats::IdleSlotMeter idle_meter_;
};

}  // namespace wlan::mac
