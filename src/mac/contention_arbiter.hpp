// Cohort-level contention arbiter: one timer event per cohort of stations
// that enter the same idle wait at the same instant, instead of one per
// station.
//
// The model (mac/station.hpp) is slotted DCF: each waiting station runs a
// NAV-expiry timer, a DIFS/EIFS timer, then one decide_transmit draw per
// idle slot boundary. Every channel edge moves ALL waiting stations at
// once: in a connected network of N stations each data frame's end parks
// N-1 bystanders on the same NAV (SIFS + ACK), the ACK's end re-enters N
// stations into the same DIFS, and the DIFS expiry starts N backoffs on
// the same slot grid. Per-station timers would carry no independent
// information — only each member's own slot draws differ. The arbiter owns
// a station's whole idle wait, in three phases:
//
//   NAV phase      park(station, until): stations parking at the same
//                  instant with the same NAV end form one *NAV cohort* with
//                  ONE normal event, scheduled by the first member; on
//                  fire, members resume (re-check the medium, then enroll)
//                  in park order.
//   IFS phase      enroll(station, ifs): same instant + same wait = one
//                  *pending cohort*, one event, scheduled by the first
//                  member.
//   backoff phase  when a pending cohort expires its members enter one
//                  *backoff cohort* sharing the entry instant, i.e. one
//                  slot grid. The cohort draws ROWS on demand: row r is
//                  one slot decision per member (each from its own
//                  RNG/strategy — the draw the model makes at that
//                  boundary), drawn until some member transmits or the
//                  kMinRows -> kMaxRows cap is reached. ONE anchored
//                  decision event sits at that row. On fire, transmitters
//                  commit in join order; survivors have then drawn exactly
//                  the elapsed slots, so they draw nothing ahead: a lazy
//                  next-row event (same anchor) draws from the next
//                  boundary only if no busy edge intervenes. The common
//                  interruption — the committed frame itself — therefore
//                  finds "elapsed slots == drawn slots" and needs no
//                  RNG/strategy rewind. (A row that ends on the cap, or
//                  whose transmitters were all withdrawn, draws ahead
//                  immediately.)
//
// Every phase keeps members in a join-ordered vector with tombstones and
// each station holds its slot index, so withdraw() — a busy edge,
// deactivation — is O(1): no search, no minimum recompute (all backoff
// members share the armed row). The cohort event is cancelled only when
// its last member leaves; the survivors of a partial withdrawal stay on
// the armed event, which simply finds no transmitter if all committers
// left, and continues the rows.
//
// Why results equal the slotted model's. The recorded hash tables
// tests/golden_corpus_hashes.inc and tests/golden_path_hashes.inc pin
// them; both were recorded while one-event-per-slot and
// one-event-per-station implementations still ran beside this one and
// agreed on every entry.
//
//   * Seq elimination is invisible: removing schedule() calls shifts later
//     events' sequence numbers but never their relative order, and every
//     tie-break in sim::EventQueue is relative.
//   * The per-member timers of the model form a contiguous same-key block
//     in the queue's same-instant ordering: members' NAV (or DIFS) timers
//     share (fire time, lookback) and tie by seq = park (enrollment)
//     order. The model's slot-boundary event is scheduled one slot before
//     it fires, so every member's boundary shares (fire time, lookback =
//     slot), and same-instant boundaries of different chains resolve by
//     backoff entry: fresher entry first, then entry schedule order. That
//     is why the decision event is *anchored* (sim::Simulator::
//     schedule_anchored): it carries the lookback of one slot and the
//     cohort's entry instant and entry seq, so however many rows it skips
//     it ties with same-instant events exactly as the model's boundary
//     event would. Firing the members in join order inside the one event
//     reproduces the block.
//   * Draw timing is unobservable: each station consumes its RNG/strategy
//     in the model's order whenever the row is drawn, and no other
//     callback touches that state while the channel stays idle. A station
//     interrupted mid-batch rewinds and replays exactly the boundaries the
//     model draws before the interruption (Station::rollback_backoff),
//     whatever was drawn ahead; the lazy next-row event fires at the
//     boundary's key, so it draws a row before any slot-committed start at
//     that instant and after any earlier-scheduled (ACK/CTS/beacon) start —
//     exactly the rollback's "does the boundary draw count" rule.
//   * Two waits ending at the same instant (a DIFS cohort catching up with
//     an earlier EIFS cohort, possible only through distinct busy-period
//     ends) interleave in the model by entry seq, which is exactly
//     pending-event fire order — so cohorts reaching backoff at the same
//     instant MERGE, appending members in that fire order (the earlier
//     cohort's first-row draws are rewound and the rows redrawn for all).
//   * All same-instant decision processing happens before any resulting
//     transmission starts (commit defers the radio through a zero-delay
//     event, and decision events out-rank radio events at the same
//     instant by schedule lookback), so member processing order inside
//     one instant cannot leak across stations through the medium.
//
// The only same-instant orderings a cohort compresses are against
// *equal-keyed* third-party events interleaving a member block mid-way
// (e.g. a timer scheduled between two parks and landing on the cohort's
// expiry instant with exactly the same lookback). Such an event's
// processing commutes with a member's resume or backoff entry — the two
// touch disjoint per-station state and the seqs they consume are never
// compared against each other — so the compressed order is
// observationally identical.
//
// Domain edges. phy::Medium groups nodes into sensing domains (nodes with
// the same heard-from set plus self; see medium.hpp) and reports a busy or
// idle edge of a single-domain source once per domain instead of once per
// member. mac::Network receives that edge and runs each member's own
// channel handler in ascending id order — the order of the per-node
// cascade, so the members leave and join this arbiter's cohorts in the
// same order, with the same event seqs. An idle edge's members pass a
// JoinHint (the NAV or IFS cohort the previous member joined) to park() /
// enroll(), which a member with the same key appends to without a search;
// join and withdraw are inline below for the same reason. The edge is
// every member's edge because a member's sensed count is its domain's
// count minus its own transmission (exact: every member hears every
// source its domain counts). Fully connected cells and ESS cells take
// this path; hidden-node placements keep the per-node callbacks.
//
// mac::Network builds one arbiter for every station of the network.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mac/station.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wlan::mac {

/// Membership bookkeeping shared by the arbiter's three cohort kinds. A
/// station belongs to at most one cohort at a time and holds a pointer to
/// it plus its slot in `members` (Station::cohort_, cohort_slot_), which
/// is what makes ContentionArbiter::withdraw O(1).
struct ArbiterCohort {
  enum class Phase : std::uint8_t { kNav, kIfs, kBackoff };
  Phase phase = Phase::kNav;
  std::vector<Station*> members;  // join order; nullptr = withdrawn
  std::size_t live = 0;           // non-null members
  std::size_t pos = 0;            // index in the arbiter's active list
  sim::EventId event;
};

class ContentionArbiter {
 public:
  /// Draw-ahead cap of a backoff batch. It is a pure performance knob —
  /// draws, boundaries and event anchoring are identical for any value —
  /// so it self-tunes: each backoff starts at kMinRows (a busy
  /// interruption forfeits the batch's unused draws, and dense contention
  /// interrupts within a few slots) and doubles per uninterrupted full
  /// batch up to kMaxRows (long idle runs approach one event per 64
  /// slots).
  static constexpr int kMinRows = 8;
  static constexpr int kMaxRows = 64;

  /// `slot` is the (network-wide) idle slot duration — the schedule
  /// lookback of the model's slot-boundary events.
  ContentionArbiter(sim::Simulator& simulator, sim::Duration slot);

  ContentionArbiter(const ContentionArbiter&) = delete;
  ContentionArbiter& operator=(const ContentionArbiter&) = delete;

  /// Runs the station's NAV-expiry timer: the station (idle medium,
  /// kIdleWait on its NAV) joins the cohort keyed (now, until), creating
  /// it — and its single expiry event — on first membership. `hint`
  /// (one idle domain edge's members) names the NAV cohort the previous
  /// member joined, which a member with the same key appends to directly.
  void park(Station& station, sim::Time until, JoinHint* hint = nullptr);

  /// Runs the station's DIFS/EIFS timer: the station (currently in its
  /// DifsWait state) joins the cohort keyed (now, ifs), creating it —
  /// and its single expiry event — on first membership. `hint` as for
  /// park(), for the IFS cohort.
  void enroll(Station& station, sim::Duration ifs, JoinHint* hint = nullptr);

  /// Removes the station from the cohort holding it (busy edge or
  /// deactivation; a backoff member has already rewound its draws). O(1):
  /// the slot becomes a tombstone, and the cohort's event is cancelled
  /// only when its last member leaves.
  void withdraw(Station& station);

  /// Lifetime counters for tests and benchmarks.
  struct Stats {
    std::uint64_t enrollments = 0;      // enroll() calls
    std::uint64_t cohorts_formed = 0;   // pending (IFS) cohorts created
    std::uint64_t entry_merges = 0;     // cohorts merged at a shared entry
    std::uint64_t decisions_fired = 0;  // cohort decision rows processed
    std::uint64_t withdrawals = 0;      // IFS/backoff withdraw() calls
    std::uint64_t nav_parks = 0;        // park() calls
    std::uint64_t nav_cohorts = 0;      // NAV cohorts created
    std::uint64_t nav_expiries = 0;     // members resumed by a NAV expiry
    std::uint64_t nav_withdrawals = 0;  // NAV withdraw() calls
    // Stations parked right now: nav_parks - nav_expiries -
    // nav_withdrawals.
  };
  const Stats& stats() const { return stats_; }

 private:
  /// NAV and IFS phases: members share the join instant and the expiry
  /// instant. One normal event, first member's key.
  struct WaitCohort : ArbiterCohort {
    sim::Time joined_at;
    sim::Time expires_at;
  };

  /// Backoff phase: members share the entry instant (= slot grid anchor)
  /// and the current batch's rows: every live member has drawn exactly
  /// `rows` decisions since `origin`. The event is armed at row
  /// max(rows, 1) — row 0 means "lazy": nothing drawn yet.
  struct BackoffCohort : ArbiterCohort {
    sim::Time entry;           // anchor instant of every member's grid
    std::uint64_t anchor_seq;  // anchored order_seq (first schedule's seq)
    sim::Time origin;          // the current batch's row-0 boundary
    int rows = 0;              // rows drawn in the current batch
    int limit = 0;             // draw-ahead cap for this batch
    std::size_t committers = 0;  // live members transmitting at `rows`
    std::uint64_t id = 0;      // process-unique label (flight recorder)
  };

  /// Joins `station` to the NAV or IFS cohort keyed (now, expires),
  /// forming it (one event at `expires`) on first membership.
  /// `hinted` is the cohort the previous member of the same domain edge
  /// joined in this phase (or nullptr): the one a search would find when
  /// the keys match, since a key names at most one active cohort.
  WaitCohort& join_wait(std::vector<std::unique_ptr<WaitCohort>>& active,
                        ArbiterCohort::Phase phase, Station& station,
                        sim::Time expires, ArbiterCohort*& hinted);
  /// join_wait's first membership: a new cohort and its event.
  WaitCohort& form_wait(std::vector<std::unique_ptr<WaitCohort>>& active,
                        ArbiterCohort::Phase phase, Station& station,
                        sim::Time expires);
  /// withdraw's last member: cancels the cohort's event and pools it.
  void retire(ArbiterCohort* cohort);
  void nav_expired(WaitCohort* cohort);
  void pending_expired(WaitCohort* cohort);
  /// The armed row's event: draws the rows of a lazy cohort first, then
  /// processes the row if it is due now (else re-arms at the drawn row).
  void row_due(BackoffCohort* cohort);
  /// Commits the due row's transmitters in join order, then continues the
  /// survivors: lazily after a commit row, drawing ahead otherwise.
  void decide(BackoffCohort* cohort);
  /// Draws rows until a member transmits or the batch cap is reached.
  void draw_rows(BackoffCohort& cohort);
  /// Schedules the cohort's event at row max(rows, 1), re-anchoring first
  /// if the entry lookback would saturate the order key (> ~4.29 s of
  /// continuous backoff — unreachable under every existing scheme).
  void arm(BackoffCohort& cohort);

  static void add_member(ArbiterCohort& cohort, Station& station);

  template <class C>
  static C& acquire(std::vector<std::unique_ptr<C>>& active,
                    std::vector<std::unique_ptr<C>>& pool);
  template <class C>
  static void release(std::vector<std::unique_ptr<C>>& active,
                      std::vector<std::unique_ptr<C>>& pool, C* cohort);

  sim::Simulator& sim_;
  sim::Duration slot_;
  std::vector<std::unique_ptr<WaitCohort>> nav_;
  std::vector<std::unique_ptr<WaitCohort>> pending_;
  std::vector<std::unique_ptr<BackoffCohort>> backoff_;
  // Retired cohorts parked for reuse: steady-state contention allocates
  // nothing once the member vectors have grown to the network size.
  std::vector<std::unique_ptr<WaitCohort>> wait_pool_;
  std::vector<std::unique_ptr<BackoffCohort>> backoff_pool_;
  std::uint64_t next_backoff_id_ = 0;  // BackoffCohort::id source
  Stats stats_;
};

// Joining and leaving run for every member on every busy or idle domain
// edge, so their common case is inline here, where Station's handlers
// see it; forming and retiring a cohort stay out of line.

inline void ContentionArbiter::add_member(ArbiterCohort& cohort,
                                          Station& station) {
  assert(station.cohort_ == nullptr && "station already in a cohort");
  station.cohort_ = &cohort;
  station.cohort_slot_ = cohort.members.size();
  cohort.members.push_back(&station);
  ++cohort.live;
}

inline ContentionArbiter::WaitCohort& ContentionArbiter::join_wait(
    std::vector<std::unique_ptr<WaitCohort>>& active,
    ArbiterCohort::Phase phase, Station& station, sim::Time expires,
    ArbiterCohort*& hinted) {
  const sim::Time now = sim_.now();
  // Same instant + same expiry = the same key for the model's per-member
  // timers; join order is exactly their seq order.
  auto* h = static_cast<WaitCohort*>(hinted);
  if (h != nullptr && h->joined_at == now && h->expires_at == expires) {
    add_member(*h, station);
    return *h;
  }
  for (auto& c : active) {
    if (c->joined_at == now && c->expires_at == expires) {
      add_member(*c, station);
      hinted = c.get();
      return *c;
    }
  }
  WaitCohort& formed = form_wait(active, phase, station, expires);
  hinted = &formed;
  return formed;
}

inline void ContentionArbiter::park(Station& station, sim::Time until,
                                    JoinHint* hint) {
  ++stats_.nav_parks;
  ArbiterCohort* none = nullptr;
  const WaitCohort& c =
      join_wait(nav_, ArbiterCohort::Phase::kNav, station, until,
                hint != nullptr ? hint->nav : none);
  if (c.members.size() == 1) ++stats_.nav_cohorts;
  WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kNavPark, station.id(),
                 (until - sim_.now()).ns(), c.members.size());
}

inline void ContentionArbiter::enroll(Station& station, sim::Duration ifs,
                                      JoinHint* hint) {
  ++stats_.enrollments;
  ArbiterCohort* none = nullptr;
  const WaitCohort& c =
      join_wait(pending_, ArbiterCohort::Phase::kIfs, station,
                sim_.now() + ifs, hint != nullptr ? hint->ifs : none);
  if (c.members.size() == 1) {
    ++stats_.cohorts_formed;
    WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kCohortFormed,
                   station.id(), ifs.ns(), stats_.cohorts_formed);
  } else {
    WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kEnroll, station.id(),
                   ifs.ns(), c.members.size());
  }
}

inline void ContentionArbiter::withdraw(Station& station) {
  ArbiterCohort* c = station.cohort_;
  assert(c != nullptr && "withdraw: station is not in any cohort");
  assert(c->members[station.cohort_slot_] == &station);
  c->members[station.cohort_slot_] = nullptr;  // tombstone
  --c->live;
  station.cohort_ = nullptr;
  if (c->phase == ArbiterCohort::Phase::kNav) {
    ++stats_.nav_withdrawals;
  } else {
    ++stats_.withdrawals;
  }
  if (c->phase == ArbiterCohort::Phase::kBackoff && station.batch_transmit_)
    --static_cast<BackoffCohort*>(c)->committers;
  WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kWithdraw, station.id(),
                 c->live, static_cast<std::uint64_t>(c->phase));
  // Survivors stay on the armed event: a wait's expiry is theirs too, and
  // a backoff row whose transmitters all left just continues the rows.
  if (c->live != 0) return;
  retire(c);
}

}  // namespace wlan::mac
