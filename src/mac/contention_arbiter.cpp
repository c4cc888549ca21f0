#include "mac/contention_arbiter.hpp"

#include <algorithm>
#include <cassert>

#include "mac/station.hpp"
#include "obs/trace.hpp"

namespace wlan::mac {

namespace {

/// The first live member (trace records name one node per cohort event).
/// Only WLAN_OBS_POINT arguments call it, and -DWLAN_OBS_TRACE=OFF drops
/// them, hence [[maybe_unused]].
[[maybe_unused]] std::uint32_t first_member_id(const ArbiterCohort& cohort) {
  for (const Station* s : cohort.members)
    if (s != nullptr) return s->id();
  return 0;
}

}  // namespace

ContentionArbiter::ContentionArbiter(sim::Simulator& simulator,
                                     sim::Duration slot)
    : sim_(simulator), slot_(slot) {}

template <class C>
C& ContentionArbiter::acquire(std::vector<std::unique_ptr<C>>& active,
                              std::vector<std::unique_ptr<C>>& pool) {
  std::unique_ptr<C> cohort;
  if (pool.empty()) {
    cohort = std::make_unique<C>();
  } else {
    cohort = std::move(pool.back());
    pool.pop_back();
  }
  cohort->members.clear();
  cohort->live = 0;
  cohort->pos = active.size();
  C& ref = *cohort;
  active.push_back(std::move(cohort));
  return ref;
}

template <class C>
void ContentionArbiter::release(std::vector<std::unique_ptr<C>>& active,
                                std::vector<std::unique_ptr<C>>& pool,
                                C* cohort) {
  const std::size_t pos = cohort->pos;
  assert(pos < active.size() && active[pos].get() == cohort);
  pool.push_back(std::move(active[pos]));
  if (pos + 1 != active.size()) {
    active[pos] = std::move(active.back());
    active[pos]->pos = pos;
  }
  active.pop_back();
}

ContentionArbiter::WaitCohort& ContentionArbiter::form_wait(
    std::vector<std::unique_ptr<WaitCohort>>& active,
    ArbiterCohort::Phase phase, Station& station, sim::Time expires) {
  WaitCohort& cohort = acquire(active, wait_pool_);
  cohort.phase = phase;
  cohort.joined_at = sim_.now();
  cohort.expires_at = expires;
  add_member(cohort, station);
  WaitCohort* raw = &cohort;
  // A normal event scheduled now: the key (and queue position) of the
  // model's timer for the first member.
  cohort.event = sim_.schedule_at(expires, [this, raw] {
    if (raw->phase == ArbiterCohort::Phase::kNav) {
      nav_expired(raw);
    } else {
      pending_expired(raw);
    }
  });
  return cohort;
}

void ContentionArbiter::retire(ArbiterCohort* c) {
  sim_.cancel(c->event);
  switch (c->phase) {
    case ArbiterCohort::Phase::kNav:
      release(nav_, wait_pool_, static_cast<WaitCohort*>(c));
      break;
    case ArbiterCohort::Phase::kIfs:
      release(pending_, wait_pool_, static_cast<WaitCohort*>(c));
      break;
    case ArbiterCohort::Phase::kBackoff:
      release(backoff_, backoff_pool_, static_cast<BackoffCohort*>(c));
      break;
  }
}

void ContentionArbiter::nav_expired(WaitCohort* cohort) {
  assert(cohort->live != 0);
  stats_.nav_expiries += cohort->live;
  WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kNavExpire,
                 first_member_id(*cohort), cohort->live, stats_.nav_expiries);
  // Park order == the seq order of the model's per-member NAV timers this
  // one event stands in for. A member's resume only re-checks the medium
  // and enrolls (no transmission starts), so no member leaves mid-loop.
  for (Station* s : cohort->members) {
    if (s == nullptr) continue;
    s->cohort_ = nullptr;
    s->nav_expired();
  }
  release(nav_, wait_pool_, cohort);
}

void ContentionArbiter::pending_expired(WaitCohort* cohort) {
  const sim::Time now = sim_.now();
  assert(now == cohort->expires_at);
  assert(cohort->live != 0);

  // Two waits can end at the same instant only via distinct busy-period
  // ends (e.g. an earlier EIFS cohort and a later DIFS cohort). The
  // model's per-member entries interleave by seq — which is this
  // pending-fire order — so later cohorts APPEND to the one already
  // entered at this instant instead of anchoring their own.
  BackoffCohort* target = nullptr;
  for (auto& b : backoff_) {
    if (b->entry == now && b->origin == now) {
      target = b.get();
      break;
    }
  }
  const bool merged = target != nullptr;
  if (!merged) {
    BackoffCohort& fresh = acquire(backoff_, backoff_pool_);
    fresh.phase = ArbiterCohort::Phase::kBackoff;
    fresh.entry = now;
    fresh.anchor_seq = 0;
    fresh.origin = now;
    fresh.rows = 0;
    fresh.limit = kMinRows;
    fresh.committers = 0;
    fresh.id = ++next_backoff_id_;
    target = &fresh;
  } else {
    ++stats_.entry_merges;
    WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kCohortMerge,
                   first_member_id(*cohort),
                   (cohort->expires_at - cohort->joined_at).ns(),
                   target->live);
    // The earlier cohort's rows stopped at ITS first transmitter; redraw
    // them for the merged membership (rare: a coincidence of two waits).
    for (Station* s : target->members)
      if (s != nullptr) s->cohort_discard_batch();
    target->rows = 0;
    target->committers = 0;
  }

  // Enter every member in enrollment order; the rows below draw from each
  // member's own RNG/strategy — the identical draws, in an order that
  // cannot matter (stations share no decision state).
  for (Station* s : cohort->members) {
    if (s == nullptr) continue;
    s->cohort_ = nullptr;
    s->cohort_id_ = target->id;
    s->cohort_enter_backoff();
    add_member(*target, *s);
  }
  release(pending_, wait_pool_, cohort);

  draw_rows(*target);
  if (merged) sim_.cancel(target->event);
  arm(*target);
}

void ContentionArbiter::draw_rows(BackoffCohort& cohort) {
  assert(cohort.committers == 0);
  while (cohort.rows < cohort.limit) {
    ++cohort.rows;
    for (Station* s : cohort.members)
      if (s != nullptr && s->cohort_draw()) ++cohort.committers;
    if (cohort.committers != 0) break;
  }
}

void ContentionArbiter::row_due(BackoffCohort* cohort) {
  if (cohort->rows == 0) {
    // Lazy next-row event: the boundary arrived with no busy edge, so the
    // survivors start drawing here (row 1 is this very boundary).
    draw_rows(*cohort);
    if (cohort->rows > 1) {
      arm(*cohort);
      return;
    }
  }
  decide(cohort);
}

void ContentionArbiter::decide(BackoffCohort* cohort) {
  ++stats_.decisions_fired;
  const sim::Time now = sim_.now();
  assert(now == cohort->origin + slot_ * std::max(cohort->rows, 1));
  WLAN_OBS_POINT(sim_, obs::kCatCohort, obs::ev::kCohortDecision,
                 first_member_id(*cohort), cohort->live, cohort->rows);

  // Members in join order == the seq order of the model's per-member
  // boundary events this one event stands in for. Transmitters commit and
  // leave (the radio start is deferred through a zero-delay event, so no
  // commit is visible to a later member here); the rest start a new batch
  // at this boundary.
  const bool committed = cohort->committers != 0;
  const bool capped = cohort->rows == cohort->limit;
  // Survivors are compacted in place (dropping tombstones, keeping order).
  std::vector<Station*>& members = cohort->members;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    Station* s = members[i];
    if (s == nullptr) continue;
    if (s->cohort_decision()) {
      s->cohort_ = nullptr;
      continue;
    }
    s->cohort_slot_ = kept;
    members[kept++] = s;
  }
  members.resize(kept);
  cohort->live = kept;
  cohort->committers = 0;
  if (kept == 0) {
    release(backoff_, backoff_pool_, cohort);
    return;
  }
  cohort->origin = now;
  cohort->rows = 0;
  if (committed) {
    // The survivors have drawn exactly the elapsed slots. The committed
    // frame interrupts every survivor that senses it at this very instant,
    // so draw nothing ahead: arm the next row lazily.
    arm(*cohort);
    return;
  }
  // No transmitter (cap reached, or every transmitter withdrew): keep
  // drawing ahead, doubling the cap after an uninterrupted full batch.
  if (capped)
    cohort->limit = std::min(cohort->limit * 2, kMaxRows);
  draw_rows(*cohort);
  arm(*cohort);
}

void ContentionArbiter::arm(BackoffCohort& cohort) {
  const sim::Time due = cohort.origin + slot_ * std::max(cohort.rows, 1);
  // Entry-lookback saturation guard: past ~4.29 s of continuous backoff
  // the order key could no longer express the entry recency, so re-anchor
  // to now. Deterministic, and unreachable under every existing scheme (it
  // needs > 4 s of idle backoff).
  if ((due - cohort.entry).ns() >=
      static_cast<std::int64_t>(UINT32_MAX) - slot_.ns()) {
    cohort.entry = sim_.now();
    cohort.anchor_seq = 0;
  }
  BackoffCohort* raw = &cohort;
  cohort.event = sim_.schedule_anchored(
      due, slot_, cohort.entry, cohort.anchor_seq,
      [this, raw] { row_due(raw); });
  if (cohort.anchor_seq == 0) cohort.anchor_seq = cohort.event.sequence();
}

}  // namespace wlan::mac
