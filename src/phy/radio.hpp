#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/counters.hpp"
#include "phy/frame.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace mts::phy {

class Channel;

/// Half-duplex radio transceiver attached to one node.
///
/// Reception model (ns-2 `WirelessPhy` capture): a reception that starts
/// while another is in progress is never decoded, and each ongoing
/// reception survives it only if it is at least `capture_threshold_`
/// stronger (two-ray power ~ d^-4); otherwise that one corrupts too.
/// Transmitting makes the radio deaf; starting to transmit corrupts
/// anything being received.  Physical carrier sense is
/// `busy = transmitting || any reception in progress`, reported to the
/// MAC via edge-triggered callbacks.
///
/// The radio delivers *every* cleanly decoded frame to the MAC,
/// including frames addressed elsewhere — the MAC needs them for NAV,
/// and the security layer's promiscuous tap hangs off the same path.
class Radio {
 public:
  struct Callbacks {
    std::function<void(const Frame&)> on_frame;     ///< any decoded frame
    std::function<void(bool)> on_medium_busy;       ///< physical CS edges
    std::function<void()> on_tx_done;               ///< our frame finished
    /// A reception ended that could not be decoded (collision, or energy
    /// from beyond decode range) — the MAC's EIFS trigger.
    std::function<void()> on_rx_garbage;
  };

  Radio(sim::Scheduler& sched, net::NodeId id, net::Counters* counters)
      : sched_(&sched),
        id_(id),
        counters_(counters),
        tx_done_timer_(sched, [this] { tx_done(); },
                       sim::EventCategory::kPhy) {}

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  void set_channel(Channel* ch) { channel_ = ch; }
  void set_callbacks(Callbacks cb) { cb_ = std::move(cb); }

  [[nodiscard]] net::NodeId id() const { return id_; }

  /// Physical carrier: busy while transmitting or any energy arrives.
  [[nodiscard]] bool medium_busy() const {
    return transmitting() || receiving();
  }
  [[nodiscard]] bool transmitting() const { return sched_->now() < tx_end_; }

  /// MAC-facing: radiate `frame` for `airtime`.  Pre-condition: not
  /// already transmitting (the MAC's job to ensure).  Ongoing receptions
  /// are corrupted (half duplex).
  void start_transmit(const Frame& frame, sim::Time airtime);

  /// Where a reception's end sits in the event order: the channel runs
  /// end_reception(slot) at (t, seq) as a step of its delivery wave.
  struct ReceptionEnd {
    sim::Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Channel-facing: energy begins arriving from `distance` metres.
  /// `decodable` is false for frames inside carrier-sense range but
  /// beyond decode range.  The radio keeps a pointer to `frame`: the
  /// channel keeps it alive until the reception's end step has run.
  /// Returns the reception's end, or nullopt when the radio is deaf
  /// (transmitting).
  std::optional<ReceptionEnd> begin_reception(const Frame& frame,
                                              sim::Time airtime,
                                              bool decodable, double distance);

  /// Channel-facing: the reception in `slot` ends now.
  void end_reception(std::uint32_t slot);

  /// ns-2 `WirelessPhy` capture rule: an ongoing reception survives a
  /// new arrival iff it is at least this power ratio stronger (10 dB);
  /// the newcomer is then discarded as noise.  Otherwise both corrupt.
  void set_capture_threshold(double ratio) { capture_threshold_ = ratio; }

  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }
  [[nodiscard]] std::uint64_t frames_decoded() const { return decoded_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return sent_; }

 private:
  struct Reception {
    /// Borrowed from the channel's delivery wave; nullptr marks a free
    /// spill record.
    const Frame* frame = nullptr;
    /// Metres; its capture power is computed on overlap.
    double distance = 0.0;
    bool corrupt = false;
    bool decodable = false;
  };

  /// Inline reception records.  Concurrent receptions per radio peak at
  /// 5 on the 50-node paper scenario, 7 on the 100-node user plane and 9
  /// on the 1k-node arena, and 97% of the paper scenario's arrivals find
  /// the radio idle, so eight inline records cover nearly every burst
  /// without a heap touch.
  static constexpr std::uint32_t kInlineReceptions = 8;

  [[nodiscard]] bool receiving() const {
    return (inline_used_ | spilled_) != 0;
  }
  /// Calls `f` on every in-flight reception record.
  template <typename F>
  void for_each_reception(F&& f) {
    for (std::uint32_t m = inline_used_; m != 0; m &= m - 1) {
      f(inline_[static_cast<std::size_t>(std::countr_zero(m))]);
    }
    if (spilled_ == 0) return;
    for (Reception& rx : spill_) {
      if (rx.frame != nullptr) f(rx);
    }
  }
  /// Files a reception in a free record and returns its slot.  The
  /// fields come in as scalars: copying a just-built Reception would
  /// reload it as a 16-byte block from smaller stores, which stalls
  /// store forwarding on every arrival.
  std::uint32_t store_reception(const Frame& frame, double distance,
                                bool corrupt, bool decodable);
  /// Takes a free spill record (growing the spill area if none is
  /// free) and returns its slot.
  std::uint32_t spill_slot();
  /// Frees `slot` and returns the record it held.
  Reception take_reception(std::uint32_t slot);

  void tx_done();
  void medium_edge(bool was_busy);

  /// What begin_reception reads comes first: the scheduler, the transmit
  /// end, the occupancy masks and record 0 share the object's first 56
  /// bytes, and an arrival that finds the radio idle takes record 0.
  sim::Scheduler* sched_;
  sim::Time tx_end_ = sim::Time::zero();
  std::uint32_t inline_used_ = 0;
  std::uint32_t spilled_ = 0;  ///< in-flight records in `spill_`
  double capture_threshold_ = 10.0;
  /// In-flight receptions.  Slot i < kInlineReceptions is `inline_[i]`,
  /// taken while bit i of `inline_used_` is set; a burst beyond the
  /// inline records spills to slot kInlineReceptions + j, `spill_[j]`
  /// (a broadcast storm can exceed any fixed bound, so there is no cap).
  /// A slot's end step is the only thing that frees it, so the slot the
  /// channel books for that step names the same record for the whole
  /// reception.
  std::array<Reception, kInlineReceptions> inline_{};
  std::vector<Reception> spill_;

  net::NodeId id_;
  net::Counters* counters_;
  Channel* channel_ = nullptr;
  Callbacks cb_;

  /// Preallocated member timer for the end of our own transmission —
  /// one per radio instead of a fresh closure per frame.
  sim::Timer tx_done_timer_;
  std::uint64_t collisions_ = 0;
  std::uint64_t decoded_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace mts::phy
