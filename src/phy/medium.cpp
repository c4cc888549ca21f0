#include "phy/medium.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "topology/spatial_grid.hpp"

namespace wlan::phy {

namespace {
// The decode mask costs one bit per (source, receiver) pair — the same
// footprint as the corruption marks — so it is built whenever those marks
// are affordable anyway.
constexpr std::size_t kMaskNodeCap = 16384;

// Peer-index build work cap (candidate visits). Dense all-pairs topologies
// blow past this and simply keep scanning the in-flight list, which for
// them is already the optimal algorithm.
constexpr std::uint64_t kPeerWorkCap = 256u * 1000 * 1000;

// Below this the grid-accelerated adjacency build is pure overhead.
constexpr std::size_t kGridBuildMin = 64;
}  // namespace

Medium::Medium(sim::Simulator& simulator, const PropagationModel& propagation)
    : sim_(simulator), propagation_(propagation) {}

NodeId Medium::add_node(const Vec2& position) {
  if (finalized_) throw std::logic_error("Medium: add_node after finalize()");
  positions_.push_back(position);
  clients_.push_back(nullptr);
  transmitting_.push_back(0);
  return static_cast<NodeId>(positions_.size() - 1);
}

NodeId Medium::add_node(const Vec2& position, MediumClient& client) {
  const NodeId id = add_node(position);
  clients_[static_cast<std::size_t>(id)] = &client;
  return id;
}

void Medium::bind_client(NodeId n, MediumClient& client) {
  if (finalized_)
    throw std::logic_error("Medium: bind_client after finalize()");
  if (n < 0 || static_cast<std::size_t>(n) >= positions_.size())
    throw std::out_of_range("Medium: bind_client of unknown node");
  clients_[static_cast<std::size_t>(n)] = &client;
}

void Medium::build_adjacency() {
  const std::size_t n = positions_.size();
  aud_off_.assign(n + 1, 0);
  dec_off_.assign(n + 1, 0);
  aud_ids_.clear();
  dec_ids_.clear();

  const double range = propagation_.max_range();
  if (range > 0.0 && n >= kGridBuildMin) {
    // Bounded-range model: candidates come from a spatial grid instead of
    // all n-1 others. query_within returns ids ascending, so after the
    // exact predicate filter the rows are identical to the all-pairs
    // build's — iteration order of the busy/idle/delivery cascades (which
    // is behaviour) does not change.
    topology::SpatialGrid grid;
    grid.build(positions_, range);
    std::vector<int> cand;
    for (std::size_t s = 0; s < n; ++s) {
      grid.query_within(positions_[s], range, cand);
      for (const int o : cand) {
        if (static_cast<std::size_t>(o) == s) continue;
        const auto& dst = positions_[static_cast<std::size_t>(o)];
        if (propagation_.can_sense(positions_[s], dst))
          aud_ids_.push_back(static_cast<NodeId>(o));
        if (propagation_.can_decode(positions_[s], dst))
          dec_ids_.push_back(static_cast<NodeId>(o));
      }
      aud_off_[s + 1] = static_cast<std::uint32_t>(aud_ids_.size());
      dec_off_[s + 1] = static_cast<std::uint32_t>(dec_ids_.size());
    }
    return;
  }

  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t o = 0; o < n; ++o) {
      if (s == o) continue;
      if (propagation_.can_sense(positions_[s], positions_[o]))
        aud_ids_.push_back(static_cast<NodeId>(o));
      if (propagation_.can_decode(positions_[s], positions_[o]))
        dec_ids_.push_back(static_cast<NodeId>(o));
    }
    aud_off_[s + 1] = static_cast<std::uint32_t>(aud_ids_.size());
    dec_off_[s + 1] = static_cast<std::uint32_t>(dec_ids_.size());
  }
}

void Medium::build_decode_mask() {
  const std::size_t n = positions_.size();
  dec_mask_.assign(n * words_per_tx_, 0);
  for (std::size_t s = 0; s < n; ++s) {
    std::uint64_t* words = dec_mask_.data() + s * words_per_tx_;
    for (std::uint32_t k = dec_off_[s]; k < dec_off_[s + 1]; ++k) {
      const auto r = static_cast<std::size_t>(dec_ids_[k]);
      words[r >> 6] |= std::uint64_t{1} << (r & 63u);
    }
  }
}

void Medium::reverse_rows(const std::vector<std::uint32_t>& off,
                          const std::vector<NodeId>& ids,
                          std::vector<std::uint32_t>& rev_off,
                          std::vector<NodeId>& rev_ids) {
  // Row r of the reverse lists every s whose row holds r. Filling in
  // ascending s keeps every reverse row ascending.
  const std::size_t n = off.size() - 1;
  rev_off.assign(n + 1, 0);
  for (const NodeId r : ids) ++rev_off[static_cast<std::size_t>(r) + 1];
  for (std::size_t i = 1; i <= n; ++i) rev_off[i] += rev_off[i - 1];
  rev_ids.resize(ids.size());
  std::vector<std::uint32_t> cur(rev_off.begin(), rev_off.end() - 1);
  for (std::size_t s = 0; s < n; ++s)
    for (std::uint32_t k = off[s]; k < off[s + 1]; ++k)
      rev_ids[cur[static_cast<std::size_t>(ids[k])]++] = static_cast<NodeId>(s);
}

void Medium::build_peer_index() {
  // o is an interference peer of s iff a transmission from o overlapping
  // one from s can change an OBSERVABLE reception, i.e. set a corruption
  // bit that delivery reads. Delivery of s's frame reads exactly the bits
  // of r in D(s) (= decodable_at(s)); symmetrically for o. Walking the
  // marking rules:
  //   cond1b  o in D(s)            — half-duplex mark on s's frame at o
  //   cond1a  s in D(o)            — half-duplex mark on o's frame at s
  //   cond2   A(s) ∩ D(o) != {}    — r hears s AND r decodes o
  //   cond3   A(o) ∩ D(s) != {}    — r hears o AND r decodes s
  // The relation is symmetric (1a/1b and 2/3 swap under s<->o). Rows are
  // computed per s with reverse adjacency + an epoch-stamped dedup pass:
  //   peers(s) = D(s) ∪ revD(s) ∪ (∪_{r∈A(s)} revD(r)) ∪ (∪_{r∈D(s)} revA(r))
  // where revD(r) = {o : r ∈ D(o)} and revA(r) = {o : r ∈ A(o)}.
  const std::size_t n = positions_.size();
  peers_built_ = false;
  peer_off_.assign(n + 1, 0);
  peer_ids_.clear();
  if (n == 0) {
    peers_built_ = true;
    return;
  }

  // Reverse CSRs (ascending rows: not required for correctness — marking
  // is commutative and idempotent — but deterministic and cache-friendly).
  std::vector<std::uint32_t> ra_off, rd_off;
  std::vector<NodeId> ra_ids, rd_ids;
  reverse_rows(aud_off_, aud_ids_, ra_off, ra_ids);
  reverse_rows(dec_off_, dec_ids_, rd_off, rd_ids);

  // Work estimate first: dense topologies (everyone a peer of everyone)
  // would cost O(n^3) candidate visits here for an index that buys
  // nothing over scanning the in-flight list. Bail before doing the work.
  std::uint64_t work = 0;
  for (std::size_t s = 0; s < n; ++s) {
    work += (dec_off_[s + 1] - dec_off_[s]) + (rd_off[s + 1] - rd_off[s]);
    for (std::uint32_t k = aud_off_[s]; k < aud_off_[s + 1]; ++k) {
      const auto r = static_cast<std::size_t>(aud_ids_[k]);
      work += rd_off[r + 1] - rd_off[r];
    }
    for (std::uint32_t k = dec_off_[s]; k < dec_off_[s + 1]; ++k) {
      const auto r = static_cast<std::size_t>(dec_ids_[k]);
      work += ra_off[r + 1] - ra_off[r];
    }
    if (work > kPeerWorkCap) return;
  }

  std::vector<std::uint32_t> stamp(n, 0);
  std::uint32_t epoch = 0;
  std::vector<NodeId> buf;
  for (std::size_t s = 0; s < n; ++s) {
    ++epoch;
    buf.clear();
    const auto self = static_cast<NodeId>(s);
    auto touch = [&](NodeId o) {
      if (o == self) return;
      auto& st = stamp[static_cast<std::size_t>(o)];
      if (st == epoch) return;
      st = epoch;
      buf.push_back(o);
    };
    for (std::uint32_t k = dec_off_[s]; k < dec_off_[s + 1]; ++k)
      touch(dec_ids_[k]);  // cond1b
    for (std::uint32_t k = rd_off[s]; k < rd_off[s + 1]; ++k)
      touch(rd_ids[k]);  // cond1a
    for (std::uint32_t k = aud_off_[s]; k < aud_off_[s + 1]; ++k) {
      const auto r = static_cast<std::size_t>(aud_ids_[k]);
      for (std::uint32_t j = rd_off[r]; j < rd_off[r + 1]; ++j)
        touch(rd_ids[j]);  // cond2
    }
    for (std::uint32_t k = dec_off_[s]; k < dec_off_[s + 1]; ++k) {
      const auto r = static_cast<std::size_t>(dec_ids_[k]);
      for (std::uint32_t j = ra_off[r]; j < ra_off[r + 1]; ++j)
        touch(ra_ids[j]);  // cond3
    }
    std::sort(buf.begin(), buf.end());
    peer_ids_.insert(peer_ids_.end(), buf.begin(), buf.end());
    peer_off_[s + 1] = static_cast<std::uint32_t>(peer_ids_.size());
  }
  peers_built_ = true;
}

void Medium::finalize() {
  if (finalized_) throw std::logic_error("Medium: finalize() called twice");
  for (const MediumClient* c : clients_)
    if (c == nullptr)
      throw std::logic_error("Medium: finalize() with unbound client");
  finalized_ = true;

  build_adjacency();

  // All per-transmission state is sized once here and reused across every
  // transmission lifetime: one TxSlot per node plus one flat block of
  // corruption-mark bits per (source, receiver) pair.
  const std::size_t n = positions_.size();
  words_per_tx_ = (n + 63) / 64;
  if (n <= kMaskNodeCap) {
    build_decode_mask();
    have_masks_ = true;
  }
  build_peer_index();
  tx_slots_.assign(n, TxSlot{});
  corrupt_.assign(n * words_per_tx_, 0);
  scratch_corrupt_.assign(words_per_tx_, 0);
  active_.reserve(n);

  build_domains();
  airtime_epoch_ = sim_.now();
  const std::size_t c = carrier_.size();
  member_tx_n_.assign(c, 0);
  member_tx_xor_.assign(c, 0);
  busy_ns_.assign(c, 0);
  idle_ns_.assign(c, 0);
  last_change_.assign(c, airtime_epoch_);
  own_counted_.assign(n, 0);
  solo_ns_.assign(n, 0);
  solo_since_.assign(n, airtime_epoch_);
}

void Medium::build_domains() {
  // Key of node m: the sources m hears plus m itself, i.e. the reverse
  // audibility row of m with m merged in. Nodes are grouped by a hash of
  // the key and confirmed by exact comparison with the domain's first
  // member — O(edges) for any topology, including 5k-station ESS plans.
  const std::size_t n = positions_.size();
  std::vector<std::uint32_t> ra_off;
  std::vector<NodeId> ra_ids;
  reverse_rows(aud_off_, aud_ids_, ra_off, ra_ids);
  auto key_of = [&](std::size_t m, std::vector<NodeId>& out) {
    out.assign(ra_ids.begin() + ra_off[m], ra_ids.begin() + ra_off[m + 1]);
    out.insert(std::upper_bound(out.begin(), out.end(),
                                static_cast<NodeId>(m)),
               static_cast<NodeId>(m));
  };

  domain_of_.assign(n, 0);
  std::vector<NodeId> first;  // domain -> first member
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash;
  std::vector<NodeId> key, other;
  for (std::size_t m = 0; m < n; ++m) {
    key_of(m, key);
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the ids
    for (const NodeId v : key) {
      h ^= static_cast<std::uint32_t>(v);
      h *= 0x100000001b3ULL;
    }
    auto& bucket = by_hash[h];
    std::uint32_t dom = static_cast<std::uint32_t>(first.size());
    for (const std::uint32_t cand : bucket) {
      key_of(static_cast<std::size_t>(first[cand]), other);
      if (other == key) {
        dom = cand;
        break;
      }
    }
    if (dom == first.size()) {
      first.push_back(static_cast<NodeId>(m));
      bucket.push_back(dom);
    }
    domain_of_[m] = dom;
  }

  const std::size_t nd = first.size();
  dom_off_.assign(nd + 1, 0);
  for (std::size_t m = 0; m < n; ++m) ++dom_off_[domain_of_[m] + 1];
  for (std::size_t i = 1; i <= nd; ++i) dom_off_[i] += dom_off_[i - 1];
  dom_ids_.resize(n);
  {
    std::vector<std::uint32_t> cur(dom_off_.begin(), dom_off_.end() - 1);
    for (std::size_t m = 0; m < n; ++m)
      dom_ids_[cur[domain_of_[m]]++] = static_cast<NodeId>(m);
  }

  // A source heard outside its own domain opens its domain and every
  // domain it reaches. Closed domains share one count; every node of an
  // open domain gets its own.
  std::vector<std::uint8_t> open(nd, 0);
  for (std::size_t s = 0; s < n; ++s) {
    if (single_domain_source(static_cast<NodeId>(s))) continue;
    open[domain_of_[s]] = 1;
    for (std::uint32_t k = aud_off_[s]; k < aud_off_[s + 1]; ++k)
      open[domain_of_[static_cast<std::size_t>(aud_ids_[k])]] = 1;
  }
  closed_.assign(n, 0);
  count_of_.assign(n, 0);
  std::vector<std::uint32_t> shared(nd, UINT32_MAX);
  std::uint32_t counts = 0;
  for (std::size_t m = 0; m < n; ++m) {
    const std::uint32_t d = domain_of_[m];
    if (open[d]) {
      count_of_[m] = counts++;
      continue;
    }
    closed_[m] = 1;
    if (shared[d] == UINT32_MAX) shared[d] = counts++;
    count_of_[m] = shared[d];
  }
  carrier_.assign(counts, 0);
}

bool Medium::single_domain_source(NodeId s) const {
  const std::uint32_t own = domain_of_[static_cast<std::size_t>(s)];
  const NodeId* e = row_end(aud_off_, aud_ids_, s);
  for (const NodeId* p = row_begin(aud_off_, aud_ids_, s); p != e; ++p)
    if (domain_of_[static_cast<std::size_t>(*p)] != own) return false;
  return true;
}

Medium::NodeAirtime Medium::node_airtime(NodeId n, sim::Time now) const {
  const auto i = static_cast<std::size_t>(n);
  const std::size_t c = count_of_[i];
  NodeAirtime a{busy_ns_[c], idle_ns_[c]};
  const std::int64_t open = (now - last_change_[c]).ns();
  if (carrier_[c] > 0)
    a.busy_ns += open;
  else
    a.idle_ns += open;
  // Solo time: the closed domain counted as busy, but only n's own
  // transmission made it so — n itself sensed idle.
  std::int64_t solo = solo_ns_[i];
  if (own_counted_[i] != 0 && carrier_[c] == 1)
    solo += (now - solo_since_[i]).ns();
  a.busy_ns -= solo;
  a.idle_ns += solo;
  return a;
}

bool Medium::is_transmitting(NodeId n) const {
  return transmitting_[static_cast<std::size_t>(n)] != 0;
}

bool Medium::senses(NodeId source, NodeId observer) const {
  const NodeId* b = row_begin(aud_off_, aud_ids_, source);
  const NodeId* e = row_end(aud_off_, aud_ids_, source);
  return std::find(b, e, observer) != e;
}

bool Medium::decodes(NodeId source, NodeId observer) const {
  const NodeId* b = row_begin(dec_off_, dec_ids_, source);
  const NodeId* e = row_end(dec_off_, dec_ids_, source);
  return std::find(b, e, observer) != e;
}

std::vector<NodeId> Medium::interference_peers(NodeId s) const {
  if (!peers_built_) return {};
  return std::vector<NodeId>(row_begin(peer_off_, peer_ids_, s),
                             row_end(peer_off_, peer_ids_, s));
}

void Medium::mark_corrupt(NodeId tx_src, NodeId receiver) {
  if (receiver == tx_src) return;  // the source is never its own receiver
  // kCatMark, not kCatMedium: which unread marks get set is an
  // implementation detail (the masked pass skips them), so trace diffs
  // mask this category out.
  WLAN_OBS_POINT(sim_, obs::kCatMark, obs::ev::kMarkCorrupt, receiver, tx_src,
                 0);
  corrupt_words(tx_src)[static_cast<std::size_t>(receiver) >> 6] |=
      std::uint64_t{1} << (static_cast<unsigned>(receiver) & 63u);
}

void Medium::interfere(NodeId victim_src, NodeId interferer, NodeId receiver) {
  if (receiver == victim_src) return;
  if (capture_ratio_ > 0.0) {
    const auto& rx = positions_[static_cast<std::size_t>(receiver)];
    const double wanted = propagation_.rx_power(
        positions_[static_cast<std::size_t>(victim_src)], rx);
    const double noise = propagation_.rx_power(
        positions_[static_cast<std::size_t>(interferer)], rx);
    if (wanted >= capture_ratio_ * noise) return;  // captured: copy survives
  }
  mark_corrupt(victim_src, receiver);
}

// Mutual-corruption bookkeeping for the pair (new tx from `src`, in-flight
// tx from `o`):
//  * each source is a dead receiver for the other frame (half-duplex),
//    capture or not;
//  * every receiver audible to either source has that source's frame as a
//    (capture-aware) interferer of the other.
// Mark order is irrelevant — marking only sets per-receiver bits.
void Medium::mark_pair_unmasked(NodeId src, NodeId o) {
  mark_corrupt(o, src);
  mark_corrupt(src, o);
  const NodeId* e = row_end(aud_off_, aud_ids_, src);
  for (const NodeId* p = row_begin(aud_off_, aud_ids_, src); p != e; ++p) {
    ++interference_checks_;
    interfere(o, src, *p);
  }
  e = row_end(aud_off_, aud_ids_, o);
  for (const NodeId* p = row_begin(aud_off_, aud_ids_, o); p != e; ++p) {
    ++interference_checks_;
    interfere(src, o, *p);
  }
}

// Same pair, but every mark is pre-filtered by the decode mask: a mark on
// source f's frame at receiver r is only ever READ by delivery when r is in
// D(f), so marks failing that test can be skipped without changing any
// delivered `clean` flag. This skips both the bit write and — the expensive
// part under capture — the rx_power evaluations.
void Medium::mark_pair_masked(NodeId src, NodeId o) {
  if (decode_bit(o, src)) mark_corrupt(o, src);
  if (decode_bit(src, o)) mark_corrupt(src, o);
  const NodeId* e = row_end(aud_off_, aud_ids_, src);
  for (const NodeId* p = row_begin(aud_off_, aud_ids_, src); p != e; ++p) {
    if (!decode_bit(o, *p)) continue;
    ++interference_checks_;
    interfere(o, src, *p);
  }
  e = row_end(aud_off_, aud_ids_, o);
  for (const NodeId* p = row_begin(aud_off_, aud_ids_, o); p != e; ++p) {
    if (!decode_bit(src, *p)) continue;
    ++interference_checks_;
    interfere(src, o, *p);
  }
}

void Medium::start_transmission(NodeId src, const Frame& frame,
                                sim::Duration airtime, bool slot_committed) {
  if (!finalized_) throw std::logic_error("Medium: not finalized");
  last_start_slot_committed_ = slot_committed;
  const auto si = static_cast<std::size_t>(src);
  if (transmitting_[si])
    throw std::logic_error("Medium: node already transmitting");
  assert(frame.src == src);
  assert(airtime > sim::Duration::zero());

  const sim::Time start = sim_.now();
  const sim::Time end = start + airtime;
  const std::uint64_t id = next_tx_id_++;
  ++tx_started_;
  WLAN_OBS_POINT(sim_, obs::kCatMedium, obs::ev::kTxStart, src,
                 obs::pack_frame_detail(static_cast<unsigned>(frame.kind),
                                        frame.dst, frame.seq),
                 airtime.ns());
  if (frame.kind == FrameKind::kData)
    WLAN_OBS_FLIGHT(sim_, on_air(start.ns(), src, airtime.ns()));

  // Reuse this node's pooled slot: overwrite the previous occupant in
  // place and reset its corruption marks.
  TxSlot& tx = tx_slots_[si];
  tx.id = id;
  tx.end = end;
  tx.frame = frame;
  std::fill_n(corrupt_words(src), words_per_tx_, std::uint64_t{0});

  // Interference marking against transmissions already in flight.
  // Transmissions are half-open intervals [start, end): one that ends
  // exactly now does not overlap us, even if its end event has not fired
  // yet (event ordering at equal timestamps is insertion order).
  if (peers_built_) {
    // Only peers can observably interact (see build_peer_index); in-flight
    // non-peers are skipped without even a timestamp load.
    const NodeId* e = row_end(peer_off_, peer_ids_, src);
    for (const NodeId* p = row_begin(peer_off_, peer_ids_, src); p != e; ++p) {
      const NodeId o = *p;
      if (!transmitting_[static_cast<std::size_t>(o)]) continue;
      ++pairs_scanned_;
      if (tx_slots_[static_cast<std::size_t>(o)].end <= start) continue;
      if (have_masks_)
        mark_pair_masked(src, o);
      else
        mark_pair_unmasked(src, o);
    }
  } else {
    // Peer index declined (dense topology): scan the in-flight list,
    // still mask-filtering the per-receiver work.
    for (const NodeId o : active_) {
      ++pairs_scanned_;
      if (tx_slots_[static_cast<std::size_t>(o)].end <= start) continue;
      if (have_masks_)
        mark_pair_masked(src, o);
      else
        mark_pair_unmasked(src, o);
    }
  }

  transmitting_[si] = 1;
  tx.active_pos = static_cast<std::uint32_t>(active_.size());
  active_.push_back(src);

  // Carrier-sense: every listener audible to us sees one more transmission.
  sense_start(src, start);
  // The flag is only meaningful inside the synchronous busy cascade above;
  // drop it so a later out-of-cascade read gets the conservative answer.
  last_start_slot_committed_ = false;

  sim_.schedule_at(end, [this, src, id] { end_transmission(src, id); });
}

void Medium::end_transmission(NodeId src, std::uint64_t tx_id) {
  const auto si = static_cast<std::size_t>(src);
  TxSlot& tx = tx_slots_[si];
  assert(tx.id == tx_id && "transmission ended twice");
  (void)tx_id;

  // O(1) removal from the in-flight list via the slot's back-pointer.
  const std::uint32_t pos = tx.active_pos;
  const NodeId moved = active_.back();
  active_[pos] = moved;
  tx_slots_[static_cast<std::size_t>(moved)].active_pos = pos;
  active_.pop_back();
  tx.id = 0;

  transmitting_[si] = 0;
  ++tx_ended_;

  const sim::Time now = sim_.now();

  // Snapshot the frame and this slot's corruption marks into reusable
  // scratch storage: a delivery callback may start a new transmission from
  // this very source, which would overwrite the slot mid-loop.
  const Frame frame = tx.frame;
  std::copy_n(corrupt_words(src), words_per_tx_, scratch_corrupt_.begin());
  WLAN_OBS_POINT(sim_, obs::kCatMedium, obs::ev::kTxEnd, src,
                 obs::pack_frame_detail(static_cast<unsigned>(frame.kind),
                                        frame.dst, frame.seq),
                 0);

  // Promiscuous delivery to every receiver that can decode the source —
  // BEFORE the carrier-sense release, so that when the idle transition
  // fires a receiver already knows whether the ending busy period carried
  // an intelligible frame (the MAC's EIFS rule depends on this).
  {
    const NodeId* e = row_end(dec_off_, dec_ids_, src);
    for (const NodeId* p = row_begin(dec_off_, dec_ids_, src); p != e; ++p) {
      const auto r = static_cast<std::size_t>(*p);
      const bool clean =
          ((scratch_corrupt_[r >> 6] >> (r & 63u)) & 1u) == 0;
      if (!clean) ++corrupt_deliveries_;
      WLAN_OBS_POINT(sim_, obs::kCatMedium, obs::ev::kDeliver, r,
                     obs::pack_frame_detail(static_cast<unsigned>(frame.kind),
                                            frame.dst, frame.seq),
                     clean);
      if (frame.kind == FrameKind::kData && *p == frame.dst)
        WLAN_OBS_FLIGHT(sim_, on_verdict(now.ns(), frame.src, clean));
      clients_[r]->on_frame_received(frame, clean, now);
    }
  }

  sense_end(src, now);
}

void Medium::carrier_flip(std::size_t c, std::int32_t before, sim::Time now) {
  const std::int64_t span = (now - last_change_[c]).ns();
  if (before == 0) {
    idle_ns_[c] += span;
  } else {
    busy_ns_[c] += span;
  }
  last_change_[c] = now;
}

void Medium::toggle_own(NodeId src, std::size_t c) {
  const auto si = static_cast<std::size_t>(src);
  own_counted_[si] ^= 1;
  if (own_counted_[si] != 0) {
    ++member_tx_n_[c];
  } else {
    --member_tx_n_[c];
  }
  member_tx_xor_[c] ^= static_cast<std::uint32_t>(src);
}

void Medium::notify_busy(NodeId n, sim::Time now) {
  ++sense_callbacks_;
  clients_[static_cast<std::size_t>(n)]->on_channel_busy(now);
}

void Medium::notify_idle(NodeId n, sim::Time now) {
  ++sense_callbacks_;
  clients_[static_cast<std::size_t>(n)]->on_channel_idle(now);
}

// A member m of a closed domain senses C - own(m), so an edge reaches m
// exactly when that difference crosses 0 <-> 1: all members but the source
// when C crosses 0 <-> 1, and, when C crosses 1 <-> 2, the one member whose
// own transmission is the rest of the count. The own-solo bookkeeping
// follows the same crossings (see node_airtime). Sources of open domains
// move their listeners' per-node counts one by one.
void Medium::sense_start(NodeId src, sim::Time now) {
  const auto si = static_cast<std::size_t>(src);
  if (!closed_[si]) {
    const NodeId* e = row_end(aud_off_, aud_ids_, src);
    for (const NodeId* p = row_begin(aud_off_, aud_ids_, src); p != e; ++p) {
      const std::size_t c = count_of_[static_cast<std::size_t>(*p)];
      if (carrier_[c]++ == 0) {
        carrier_flip(c, 0, now);
        notify_busy(*p, now);
      }
    }
    return;
  }

  const std::size_t c = count_of_[si];
  const std::uint32_t lone = member_tx_n_[c] == 1 ? member_tx_xor_[c]
                                                   : UINT32_MAX;
  const std::int32_t before = carrier_[c]++;
  toggle_own(src, c);
  if (before == 0) {
    carrier_flip(c, 0, now);
    solo_begin(si, now);
    const std::uint32_t d = domain_of_[si];
    if (dom_off_[d + 1] - dom_off_[d] < 2) return;  // no listener
    if (domain_listener_ != nullptr) {
      ++domain_edges_;
      domain_listener_->on_domain_busy(domain_members(d), src, now);
    } else {
      for (const NodeId m : domain_members(d))
        if (m != src) notify_busy(m, now);
    }
  } else if (before == 1 && lone != UINT32_MAX) {
    solo_end(lone, now);
    notify_busy(static_cast<NodeId>(lone), now);
  }
}

void Medium::sense_end(NodeId src, sim::Time now) {
  const auto si = static_cast<std::size_t>(src);
  if (!closed_[si]) {
    const NodeId* e = row_end(aud_off_, aud_ids_, src);
    for (const NodeId* p = row_begin(aud_off_, aud_ids_, src); p != e; ++p) {
      const std::size_t c = count_of_[static_cast<std::size_t>(*p)];
      assert(carrier_[c] > 0);
      if (--carrier_[c] == 0) {
        carrier_flip(c, 1, now);
        notify_idle(*p, now);
      }
    }
    return;
  }

  const std::size_t c = count_of_[si];
  toggle_own(src, c);
  const std::int32_t after = --carrier_[c];
  assert(after >= 0);
  if (after == 0) {
    carrier_flip(c, 1, now);
    solo_end(si, now);
    const std::uint32_t d = domain_of_[si];
    if (dom_off_[d + 1] - dom_off_[d] < 2) return;
    if (domain_listener_ != nullptr) {
      ++domain_edges_;
      domain_listener_->on_domain_idle(domain_members(d), src, now);
    } else {
      for (const NodeId m : domain_members(d))
        if (m != src) notify_idle(m, now);
    }
  } else if (after == 1 && member_tx_n_[c] == 1) {
    const std::uint32_t lone = member_tx_xor_[c];
    solo_begin(lone, now);
    notify_idle(static_cast<NodeId>(lone), now);
  }
}

}  // namespace wlan::phy
