#include "mac/mac80211.hpp"

#include <algorithm>

#include "sim/error.hpp"

namespace mts::mac {

using phy::Frame;
using phy::FrameType;

Mac80211::Mac80211(sim::Scheduler& sched, phy::Radio& radio, MacConfig cfg,
                   sim::Rng rng, net::Counters* counters)
    : sched_(&sched),
      radio_(&radio),
      cfg_(cfg),
      eifs_(cfg_.sifs + ack_airtime() + cfg_.difs),
      rng_(rng),
      counters_(counters),
      queue_(cfg.queue_capacity),
      cw_(cfg.cw_min),
      access_timer_(sched, [this] { access_timer_fired(); },
                    sim::EventCategory::kMac),
      response_timer_(
          sched,
          [this] {
            if (state_ == State::kWaitAck) ack_timeout();
            else if (state_ == State::kWaitCts) cts_timeout();
          },
          sim::EventCategory::kMac),
      tx_defer_timer_(
          sched,
          [this] {
            if (!current_.has_value() || radio_->transmitting()) return;
            send_data_frame();
          },
          sim::EventCategory::kMac) {
  sim::require_config(cfg.cw_min > 0 && cfg.cw_max >= cfg.cw_min,
                      "MacConfig: bad contention window");
  sim::require_config(cfg.data_rate_bps > 0 && cfg.basic_rate_bps > 0,
                      "MacConfig: bad rates");
  radio_->set_callbacks(phy::Radio::Callbacks{
      [this](const Frame& f) { on_frame(f); },
      [this](bool busy) { on_medium(busy); },
      [this] { on_tx_done(); },
      [this] {
        // EIFS (802.11 §9.2.3.4): after an undecodable reception, defer
        // long enough for the frame's possible ACK to complete — the
        // hidden-ACK protection basic access depends on.
        eifs_until_ = sched_->now() + eifs_;
      },
  });
}

bool Mac80211::enqueue(net::Packet packet, net::NodeId next_hop) {
  auto dropped = queue_.enqueue(net::QueueItem{std::move(packet), next_hop});
  if (dropped.has_value()) {
    if (counters_ != nullptr) counters_->drop(net::DropReason::kQueueFull);
    if (cb_.on_drop) cb_.on_drop(dropped->packet, net::DropReason::kQueueFull);
  }
  kick();
  // "Accepted" unless the offered packet itself was the victim.
  return !dropped.has_value();
}

std::vector<net::QueueItem> Mac80211::take_queued_for(net::NodeId hop) {
  std::vector<net::QueueItem> out;
  queue_.drain_next_hop(hop,
                        [&out](net::QueueItem&& i) { out.push_back(std::move(i)); });
  return out;
}

bool Mac80211::uses_rts(const net::QueueItem& item) const {
  if (cfg_.rts_threshold_bytes == 0) return false;
  if (item.next_hop == net::kBroadcastId) return false;
  return frame_bytes(item.packet) >= cfg_.rts_threshold_bytes;
}

// --------------------------------------------------------------------------
// Contention state machine.
// --------------------------------------------------------------------------

void Mac80211::kick() {
  if (state_ == State::kWaitAck || state_ == State::kWaitCts) return;
  if (tx_kind_ != TxKind::kNone) return;  // our frame is on the air
  if (!current_.has_value()) {
    if (queue_.empty()) {
      state_ = State::kIdle;
      return;
    }
    current_ = queue_.dequeue();
    retries_ = 0;
    cw_ = cfg_.cw_min;
  }
  state_ = State::kAccess;

  if (radio_->medium_busy()) {
    // Frozen: the idle edge re-kicks us.
    access_timer_.cancel();
    phase_ = AccessPhase::kNone;
    return;
  }
  const sim::Time now = sched_->now();
  if (now < nav_end_) {
    // Virtual carrier: wake when the NAV expires.
    phase_ = AccessPhase::kNav;
    access_timer_.schedule_at(nav_end_);
    return;
  }
  const sim::Time idle_start = std::max(idle_since_, nav_end_);
  const sim::Time difs_end = std::max(idle_start + cfg_.difs, eifs_until_);
  if (bo_slots_ < 0) {
    // No backoff pending: transmit as soon as the medium has been idle
    // for a full DIFS (802.11 immediate access).
    if (now >= difs_end) {
      transmit_current();
    } else {
      phase_ = AccessPhase::kDifs;
      access_timer_.schedule_at(difs_end);
    }
    return;
  }
  // Backoff counts down only after DIFS.
  const sim::Time resume = std::max(now, difs_end);
  backoff_countdown_start_ = resume;
  phase_ = AccessPhase::kBackoff;
  access_timer_.schedule_at(resume + cfg_.slot * std::int64_t{bo_slots_});
}

void Mac80211::access_timer_fired() {
  const AccessPhase phase = phase_;
  phase_ = AccessPhase::kNone;
  if (radio_->medium_busy() || radio_->transmitting()) {
    // A response frame of ours (ACK/CTS) or late energy got in the way;
    // re-contend.
    kick();
    return;
  }
  switch (phase) {
    case AccessPhase::kNav:
      kick();
      return;
    case AccessPhase::kDifs:
      transmit_current();
      return;
    case AccessPhase::kBackoff:
      bo_slots_ = -1;  // fully counted down
      transmit_current();
      return;
    case AccessPhase::kNone:
      return;  // stale fire; ignore
  }
}

void Mac80211::on_medium(bool busy) {
  if (busy) {
    if (phase_ == AccessPhase::kBackoff) {
      // Freeze: bank the fully elapsed slots.
      const sim::Time elapsed = sched_->now() - backoff_countdown_start_;
      const auto consumed = static_cast<std::int32_t>(
          elapsed.nanoseconds() / cfg_.slot.nanoseconds());
      bo_slots_ = std::max(0, bo_slots_ - consumed);
    }
    if (phase_ != AccessPhase::kNone) {
      access_timer_.cancel();
      phase_ = AccessPhase::kNone;
    }
  } else {
    idle_since_ = sched_->now();
    kick();
  }
}

void Mac80211::transmit_current() {
  sim::require(current_.has_value(), "Mac: transmit without a frame");
  if (radio_->medium_busy() || radio_->transmitting()) {
    kick();
    return;
  }
  if (uses_rts(*current_)) {
    Frame rts;
    rts.type = FrameType::kRts;
    rts.transmitter = id();
    rts.receiver = current_->next_hop;
    rts.bytes = cfg_.rts_bytes;
    // NAV covers CTS + DATA + ACK and the three SIFS gaps.
    rts.nav = cfg_.sifs * std::int64_t{3} + cts_airtime() +
              airtime(frame_bytes(current_->packet), cfg_.data_rate_bps) +
              ack_airtime();
    tx_kind_ = TxKind::kRts;
    state_ = State::kWaitCts;
    radio_->start_transmit(rts, airtime(cfg_.rts_bytes, cfg_.basic_rate_bps));
    return;
  }
  send_data_frame();
}

void Mac80211::send_data_frame() {
  const bool broadcast = current_->next_hop == net::kBroadcastId;
  Frame f;
  f.type = FrameType::kData;
  f.transmitter = id();
  f.receiver = current_->next_hop;
  f.bytes = frame_bytes(current_->packet);
  f.seq = (retries_ > 0) ? tx_seq_ : ++tx_seq_;
  f.retry = retries_ > 0;
  f.payload = current_->packet;
  const double rate = broadcast ? cfg_.basic_rate_bps : cfg_.data_rate_bps;
  if (!broadcast) f.nav = cfg_.sifs + ack_airtime();
  tx_kind_ = broadcast ? TxKind::kBroadcast : TxKind::kData;
  if (!broadcast) state_ = State::kWaitAck;
  radio_->start_transmit(f, airtime(f.bytes, rate));
}

void Mac80211::on_tx_done() {
  const TxKind kind = tx_kind_;
  tx_kind_ = TxKind::kNone;
  switch (kind) {
    case TxKind::kBroadcast:
      // Broadcasts are fire-and-forget: no success callback.
      finish_current();
      return;
    case TxKind::kData:
      // Wait for the ACK: SIFS + ACK airtime + slack.
      response_timer_.schedule_in(cfg_.sifs + ack_airtime() +
                                  cfg_.timeout_slack);
      return;
    case TxKind::kRts:
      response_timer_.schedule_in(cfg_.sifs + cts_airtime() +
                                  cfg_.timeout_slack);
      return;
    case TxKind::kResponse:
    case TxKind::kNone:
      // ACK/CTS sent (or stale); contention resumes via the medium edge.
      return;
  }
}

void Mac80211::ack_timeout() {
  retry_or_fail("data");
}

void Mac80211::cts_timeout() {
  retry_or_fail("rts");
}

void Mac80211::retry_or_fail(const char* /*what*/) {
  ++retries_;
  ++retries_total_;
  if (counters_ != nullptr) ++counters_->mac_retries;
  if (retries_ > cfg_.retry_limit) {
    ++failures_;
    if (counters_ != nullptr)
      counters_->drop(net::DropReason::kMacRetryExceeded);
    net::QueueItem failed = std::move(*current_);
    current_.reset();
    state_ = State::kIdle;
    cw_ = cfg_.cw_min;
    draw_backoff();
    if (cb_.on_unicast_failure)
      cb_.on_unicast_failure(failed.packet, failed.next_hop);
    kick();
    return;
  }
  cw_ = std::min((cw_ + 1) * 2 - 1, cfg_.cw_max);
  draw_backoff();
  state_ = State::kAccess;
  kick();
}

void Mac80211::finish_current() {
  current_.reset();
  state_ = State::kIdle;
  cw_ = cfg_.cw_min;
  draw_backoff();  // post-transmission backoff
  kick();
}

// --------------------------------------------------------------------------
// Receive path.
// --------------------------------------------------------------------------

void Mac80211::on_frame(const Frame& f) {
  eifs_until_ = sim::Time::zero();  // a clean decode ends any EIFS penalty
  const bool for_me = f.receiver == id() || f.is_broadcast();
  if (!for_me) {
    // Virtual carrier sense: honour the transmitter's reservation.
    if (f.nav > sim::Time::zero()) {
      nav_end_ = std::max(nav_end_, sched_->now() + f.nav);
    }
    if (f.type == FrameType::kData && f.has_payload() && cb_.on_sniff) {
      cb_.on_sniff(f);
    }
    return;
  }
  switch (f.type) {
    case FrameType::kData: handle_data(f); return;
    case FrameType::kAck: handle_ack(f); return;
    case FrameType::kRts: handle_rts(f); return;
    case FrameType::kCts: handle_cts(f); return;
  }
}

void Mac80211::handle_data(const Frame& f) {
  if (!f.is_broadcast()) {
    // ACK first (even duplicates get re-ACKed — the sender missed ours).
    response_due(f);
    if (rx_seq_cache_.is_duplicate_and_update(f.transmitter, f.seq, f.retry)) {
      return;
    }
  }
  if (cb_.on_sniff && f.has_payload()) cb_.on_sniff(f);
  if (cb_.on_receive && f.has_payload()) {
    net::Packet copy = f.payload;
    cb_.on_receive(std::move(copy), f.transmitter);
  }
}

void Mac80211::handle_ack(const Frame& f) {
  if (state_ != State::kWaitAck || !current_.has_value()) return;
  if (f.transmitter != current_->next_hop) return;
  response_timer_.cancel();
  retries_ = 0;
  net::QueueItem done = std::move(*current_);
  current_.reset();
  state_ = State::kIdle;
  if (cb_.on_unicast_success)
    cb_.on_unicast_success(done.packet, done.next_hop);
  finish_current();
}

void Mac80211::handle_rts(const Frame& f) {
  // Respond with CTS unless our NAV says the medium is reserved.
  if (sched_->now() < nav_end_) return;
  response_due(f);
}

void Mac80211::handle_cts(const Frame& f) {
  if (state_ != State::kWaitCts || !current_.has_value()) return;
  if (f.transmitter != current_->next_hop) return;
  response_timer_.cancel();
  // DATA follows one SIFS after the CTS; the preallocated member timer
  // replaces a per-exchange closure (only one RTS/CTS exchange can be
  // outstanding — we are its initiator).
  tx_defer_timer_.schedule_in(cfg_.sifs);
  state_ = State::kWaitAck;  // send_data_frame keeps kWaitAck
}

void Mac80211::response_due(const Frame& request) {
  // ACK (for DATA) or CTS (for RTS) exactly one SIFS after the frame end
  // — SIFS access preempts all contention, so no carrier check beyond
  // "our own transmitter is free".
  const FrameType type =
      request.type == FrameType::kData ? FrameType::kAck : FrameType::kCts;
  const net::NodeId to = request.transmitter;
  sim::Time nav = sim::Time::zero();
  if (type == FrameType::kCts) {
    // Remaining reservation: the RTS told us how long the exchange runs.
    nav = request.nav - cfg_.sifs - cts_airtime();
    if (nav < sim::Time::zero()) nav = sim::Time::zero();
  }
  sched_->schedule_in(
      cfg_.sifs, [this, type, to, nav] { send_response(type, to, nav); },
      sim::EventCategory::kMac);
}

void Mac80211::send_response(FrameType type, net::NodeId to, sim::Time nav) {
  if (radio_->transmitting()) return;  // rare clash; requester will retry
  Frame f;
  f.type = type;
  f.transmitter = id();
  f.receiver = to;
  f.bytes = type == FrameType::kAck ? cfg_.ack_bytes : cfg_.cts_bytes;
  f.nav = nav;
  // Responses interrupt any pending access timer implicitly: the radio
  // goes busy, and on_medium(true) freezes the backoff.
  const TxKind saved = tx_kind_;
  tx_kind_ = TxKind::kResponse;
  radio_->start_transmit(f, airtime(f.bytes, cfg_.basic_rate_bps));
  // If we clobbered a pending data tx marker something is wrong.
  sim::require(saved == TxKind::kNone, "Mac: response while frame on air");
}

}  // namespace mts::mac
