#include "mac/access_point.hpp"

#include <cassert>

namespace wlan::mac {

AccessPoint::AccessPoint(sim::Simulator& simulator, phy::Medium& medium,
                         const WifiParams& params, util::Rng rng)
    : sim_(simulator),
      medium_(medium),
      params_(params),
      eifs_(params.eifs()),
      rng_(rng),
      idle_meter_(params.slot, params.difs) {}

void AccessPoint::attach(phy::NodeId self, phy::NodeId first_station_id,
                         stats::RunCounters* counters) {
  self_ = self;
  first_station_ = first_station_id;
  counters_ = counters;
  schedule_tick();
  sim_.schedule_after(kBeaconInterval, [this] { beacon_due(); });
}

void AccessPoint::schedule_tick() {
  sim_.schedule_after(kControllerTick, [this] {
    if (controller_ != nullptr) controller_->on_tick(sim_.now());
    schedule_tick();
  });
}

void AccessPoint::beacon_due() {
  if (controller_ == nullptr ||
      !params_.beacons_enabled) {  // plain 802.11: no parameters to push
    sim_.schedule_after(kBeaconInterval, [this] { beacon_due(); });
    return;
  }
  // Transmit only on an idle channel (the AP has beacon priority over
  // station DIFS waits; contention details are immaterial here). Retry
  // shortly when busy.
  // response_pending_ covers the SIFS gap before an ACK/CTS: the channel
  // looks idle but the AP's radio is committed.
  if (response_pending_ || medium_.is_transmitting(self_) ||
      medium_.is_busy_for(self_)) {
    sim_.schedule_after(kBeaconRetry, [this] { beacon_due(); });
    return;
  }
  phy::Frame beacon;
  beacon.kind = phy::FrameKind::kBeacon;
  beacon.src = self_;
  beacon.dst = phy::kInvalidNode;  // broadcast; delivery is promiscuous
  beacon.payload_bits = params_.beacon_bits;
  beacon.seq = next_seq_++;
  controller_->fill_ack(beacon.params, sim_.now());
  idle_meter_.on_own_tx_start(sim_.now(), params_.beacon_airtime());
  medium_.start_transmission(self_, beacon, params_.beacon_airtime());
  ++beacons_sent_;
  sim_.schedule_after(kBeaconInterval, [this] { beacon_due(); });
}

void AccessPoint::on_channel_busy(sim::Time now) {
  idle_meter_.on_sensed_busy(now);
}

void AccessPoint::on_channel_idle(sim::Time now) {
  idle_meter_.on_sensed_idle(now);
}

void AccessPoint::on_frame_received(const phy::Frame& frame, bool clean,
                                    sim::Time now) {
  if (frame.dst != self_) return;
  if (frame.kind != phy::FrameKind::kData &&
      frame.kind != phy::FrameKind::kRts)
    return;

  if (!clean) {
    if (frame.kind == phy::FrameKind::kData) ++data_corrupted_;
    // The gap that follows is EIFS-governed at the stations; measure the
    // AP's idle slots consistently (Table III compares per-transmission
    // backoff slots, not IFS overhead).
    idle_meter_.set_next_gap_ifs(eifs_);
    return;  // collision: no response; the station will time out
  }

  if (frame.kind == phy::FrameKind::kRts) {
    ++rts_received_;
    // A CTS can only be given when the AP's radio is free for the SIFS
    // response (it always is after a clean RTS, except when a beacon or
    // an earlier response is mid-commit).
    if (!response_pending_ && !medium_.is_transmitting(self_))
      send_cts(frame.src);
    return;
  }

  // IID channel error (paper footnote 1): the frame arrived collision-free
  // but the channel garbled it; no ACK, the station backs off and retries.
  if (params_.frame_error_rate > 0.0 &&
      rng_.bernoulli(params_.frame_error_rate)) {
    ++data_errors_;
    idle_meter_.set_next_gap_ifs(eifs_);
    return;
  }

  ++data_received_;
  if (counters_ != nullptr) {
    const auto row = static_cast<std::size_t>(frame.src - first_station_);
    counters_->node(row).bits_delivered += frame.payload_bits;
  }
  if (controller_ != nullptr) controller_->on_data_received(frame, now);
  if (success_cb_) success_cb_(frame.src, now);

  send_ack(frame.src);
}

void AccessPoint::send_cts(phy::NodeId station) {
  response_pending_ = true;
  sim_.schedule_after(params_.sifs, [this, station] {
    response_pending_ = false;
    phy::Frame cts;
    cts.kind = phy::FrameKind::kCts;
    cts.src = self_;
    cts.dst = station;
    cts.seq = next_seq_++;
    // Reserve the remainder of the exchange: SIFS + DATA + SIFS + ACK.
    cts.nav = params_.sifs + params_.data_airtime() + params_.sifs +
              params_.ack_airtime();
    idle_meter_.on_own_tx_start(sim_.now(), params_.cts_airtime());
    medium_.start_transmission(self_, cts, params_.cts_airtime());
  });
}

void AccessPoint::send_ack(phy::NodeId station) {
  // Clean receptions are serialized by the PHY (any overlap would have
  // corrupted one copy), so at most one response is ever pending.
  assert(!response_pending_);
  response_pending_ = true;
  sim_.schedule_after(params_.sifs, [this, station] {
    response_pending_ = false;
    phy::Frame ack;
    ack.kind = phy::FrameKind::kAck;
    ack.src = self_;
    ack.dst = station;
    ack.payload_bits = 0;
    ack.seq = next_seq_++;
    if (controller_ != nullptr) controller_->fill_ack(ack.params, sim_.now());
    idle_meter_.on_own_tx_start(sim_.now(), params_.ack_airtime());
    medium_.start_transmission(self_, ack, params_.ack_airtime());
  });
}

}  // namespace wlan::mac
