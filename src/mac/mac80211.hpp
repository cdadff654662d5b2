#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mac/dup_cache.hpp"
#include "net/counters.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "phy/radio.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace mts::mac {

/// IEEE 802.11 DSSS timing and policy, at the ns-2 wireless defaults the
/// paper's simulations used (2 Mb/s PHY, long PLCP preamble).
struct MacConfig {
  double data_rate_bps = 2e6;    ///< unicast data payload rate
  double basic_rate_bps = 2e6;   ///< broadcast + control frames
  sim::Time slot = sim::Time::us(20);
  sim::Time sifs = sim::Time::us(10);
  sim::Time difs = sim::Time::us(50);      ///< SIFS + 2 * slot
  sim::Time plcp_overhead = sim::Time::us(192);  ///< preamble + PLCP header
  std::uint32_t cw_min = 31;
  std::uint32_t cw_max = 1023;
  std::uint32_t retry_limit = 7;           ///< short retry count
  std::uint32_t data_header_bytes = 28;    ///< MAC header (24) + FCS (4)
  std::uint32_t ack_bytes = 14;
  std::uint32_t rts_bytes = 20;
  std::uint32_t cts_bytes = 14;
  std::size_t queue_capacity = 50;         ///< ns-2 ifq default
  /// Frames at least this large (MAC payload bytes) use RTS/CTS;
  /// 0 disables the handshake entirely (paper-default basic access).
  std::uint32_t rts_threshold_bytes = 0;
  /// Allowance for propagation + turnaround when timing out responses.
  sim::Time timeout_slack = sim::Time::us(30);
};

/// IEEE 802.11 DCF over a `phy::Radio`.
///
/// Implements: physical + virtual (NAV) carrier sense, DIFS deferral,
/// freezing binary-exponential backoff, post-transmission backoff,
/// unicast DATA->ACK with retry limit and link-failure callback,
/// optional RTS/CTS, broadcast without ACK, EIFS deferral after an
/// undecodable reception (802.11 §9.2.3.4), a priority interface queue,
/// and receive-side duplicate filtering.
///
/// Not modelled (documented simplifications): fragmentation and rate
/// adaptation — neither of which the paper's 2005 study models either.
class Mac80211 {
 public:
  struct Callbacks {
    /// A decoded frame addressed to this node (or broadcast) carried a
    /// network packet; `from` is the MAC-level transmitter.
    std::function<void(net::Packet&&, net::NodeId from)> on_receive;
    /// Unicast abandoned after the retry limit — the routing protocol's
    /// link-failure signal (paper §III-E "feedback from the MAC layer").
    std::function<void(const net::Packet&, net::NodeId next_hop)>
        on_unicast_failure;
    /// Unicast acknowledged by the next hop.
    std::function<void(const net::Packet&, net::NodeId next_hop)>
        on_unicast_success;
    /// Packet dropped inside the MAC (queue overflow etc.).
    std::function<void(const net::Packet&, net::DropReason)> on_drop;
    /// Every cleanly decoded DATA frame, regardless of its addressee —
    /// promiscuous tap for the eavesdropper / relay census.
    std::function<void(const phy::Frame&)> on_sniff;
  };

  Mac80211(sim::Scheduler& sched, phy::Radio& radio, MacConfig cfg,
           sim::Rng rng, net::Counters* counters);

  Mac80211(const Mac80211&) = delete;
  Mac80211& operator=(const Mac80211&) = delete;

  void set_callbacks(Callbacks cb) { cb_ = std::move(cb); }

  [[nodiscard]] net::NodeId id() const { return radio_->id(); }
  [[nodiscard]] const MacConfig& config() const { return cfg_; }

  /// Hands a packet to the link layer.  Returns false if it was dropped
  /// immediately (queue overflow) — the drop callback fires either way.
  bool enqueue(net::Packet packet, net::NodeId next_hop);

  /// Pulls every queued packet whose next hop is `hop` out of the
  /// interface queue (link declared dead by routing).  The in-flight
  /// frame, if any, is not touched — it will fail on its own.
  [[nodiscard]] std::vector<net::QueueItem> take_queued_for(net::NodeId hop);

  [[nodiscard]] std::size_t queue_size() const { return queue_.size(); }
  [[nodiscard]] bool idle() const {
    return state_ == State::kIdle && queue_.empty();
  }

  /// Airtime of a MAC frame of `mac_bytes` total bytes at `rate`.
  [[nodiscard]] sim::Time airtime(std::uint32_t mac_bytes, double rate) const {
    return cfg_.plcp_overhead +
           sim::Time::seconds(static_cast<double>(mac_bytes) * 8.0 / rate);
  }

  // --- statistics -----------------------------------------------------
  [[nodiscard]] std::uint64_t retries_total() const { return retries_total_; }
  [[nodiscard]] std::uint64_t unicast_failures() const { return failures_; }

 private:
  enum class State : std::uint8_t { kIdle, kAccess, kWaitCts, kWaitAck };
  enum class TxKind : std::uint8_t { kNone, kBroadcast, kData, kRts, kResponse };
  enum class AccessPhase : std::uint8_t { kNone, kNav, kDifs, kBackoff };

  // Radio-facing handlers.
  void on_frame(const phy::Frame& f);
  void on_medium(bool busy);
  void on_tx_done();

  void handle_data(const phy::Frame& f);
  void handle_ack(const phy::Frame& f);
  void handle_rts(const phy::Frame& f);
  void handle_cts(const phy::Frame& f);

  /// Drives the contention state machine; safe to call whenever anything
  /// that gates transmission may have changed.
  void kick();
  void access_timer_fired();
  void transmit_current();
  void send_data_frame();
  void send_response(phy::FrameType type, net::NodeId to, sim::Time nav);
  void response_due(const phy::Frame& f);
  void ack_timeout();
  void cts_timeout();
  void retry_or_fail(const char* what);
  void finish_current();
  void draw_backoff() {
    bo_slots_ = static_cast<std::int32_t>(rng_.uniform_int(0, cw_));
  }

  [[nodiscard]] bool uses_rts(const net::QueueItem& item) const;
  [[nodiscard]] sim::Time ack_airtime() const {
    return airtime(cfg_.ack_bytes, cfg_.basic_rate_bps);
  }
  [[nodiscard]] sim::Time cts_airtime() const {
    return airtime(cfg_.cts_bytes, cfg_.basic_rate_bps);
  }
  [[nodiscard]] std::uint32_t frame_bytes(const net::Packet& p) const {
    return p.wire_bytes() + cfg_.data_header_bytes;
  }

  sim::Scheduler* sched_;
  phy::Radio* radio_;
  MacConfig cfg_;
  /// EIFS: SIFS + ACK airtime + DIFS, fixed by the config.
  sim::Time eifs_;
  sim::Rng rng_;
  net::Counters* counters_;
  Callbacks cb_;

  net::PriQueue queue_;
  std::optional<net::QueueItem> current_;
  State state_ = State::kIdle;
  TxKind tx_kind_ = TxKind::kNone;
  AccessPhase phase_ = AccessPhase::kNone;

  std::uint16_t tx_seq_ = 0;
  std::uint32_t retries_ = 0;
  std::uint32_t cw_;
  std::int32_t bo_slots_ = -1;  ///< -1: no backoff pending
  sim::Time idle_since_ = sim::Time::zero();
  sim::Time nav_end_ = sim::Time::zero();
  sim::Time eifs_until_ = sim::Time::zero();
  sim::Time backoff_countdown_start_ = sim::Time::zero();

  sim::Timer access_timer_;
  sim::Timer response_timer_;  ///< ACK / CTS timeout
  sim::Timer tx_defer_timer_;  ///< SIFS gap between CTS arrival and DATA

  /// Receive-side duplicate filter: last MAC seq per transmitter, in a
  /// fixed open-addressed table (no heap on the per-frame path).
  RxDupCache rx_seq_cache_;

  std::uint64_t retries_total_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace mts::mac
