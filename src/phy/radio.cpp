#include "phy/radio.hpp"

#include <algorithm>
#include <cmath>

#include "phy/channel.hpp"
#include "sim/error.hpp"

namespace mts::phy {
namespace {

/// Two-ray path-loss surrogate (power ~ d^-4) for the capture rule,
/// clamped below 1 m to keep it finite.
double capture_power(double distance) {
  return std::pow(std::max(distance, 1.0), -4.0);
}

}  // namespace

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kAck: return "ACK";
    case FrameType::kRts: return "RTS";
    case FrameType::kCts: return "CTS";
  }
  return "?";
}

void Radio::start_transmit(const Frame& frame, sim::Time airtime) {
  sim::require(channel_ != nullptr, "Radio: no channel attached");
  sim::require(!transmitting(), "Radio: start_transmit while transmitting");
  const bool was_busy = medium_busy();
  // Half duplex: anything being received is lost the instant we key up.
  for_each_reception([](Reception& rx) { rx.corrupt = true; });
  tx_end_ = sched_->now() + airtime;
  ++sent_;
  if (counters_ != nullptr) ++counters_->mac_tx_frames;
  channel_->transmit(id_, frame, airtime);
  tx_done_timer_.schedule_at(tx_end_);
  if (!was_busy) medium_edge(false);
}

void Radio::tx_done() {
  if (cb_.on_tx_done) cb_.on_tx_done();
  medium_edge(/*was_busy=*/true);
}

std::optional<Radio::ReceptionEnd> Radio::begin_reception(const Frame& frame,
                                                          sim::Time airtime,
                                                          bool decodable,
                                                          double distance) {
  if (transmitting()) {
    // Deaf while keyed up; the energy passes unnoticed (it also cannot
    // corrupt anything: we are not receiving).
    return std::nullopt;
  }
  const bool was_busy = medium_busy();
  // Capture (ns-2 WirelessPhy): the newcomer is noise to any ongoing
  // reception that is >= capture_threshold_ stronger; such receptions
  // survive.  Weaker or comparable ongoing receptions are corrupted.
  // The newcomer itself is decodable only if the medium was clear.  The
  // powers matter only here, on overlap, so they are computed here.
  const bool corrupt = receiving();
  if (corrupt) {
    const double rx_power = capture_power(distance);
    for_each_reception([&](Reception& rx) {
      if (capture_power(rx.distance) < rx_power * capture_threshold_) {
        rx.corrupt = true;
      }
    });
  }
  const std::uint32_t slot =
      store_reception(frame, distance, corrupt, decodable);
  // The end's seq is drawn here, where a self-scheduled end event would
  // draw it: before the busy edge below, whose callback may schedule.
  const ReceptionEnd end{sched_->now() + airtime, sched_->reserve_seqs(1),
                         slot};
  if (!was_busy) medium_edge(false);
  return end;
}

void Radio::end_reception(std::uint32_t slot) {
  // Free the record *before* running callbacks: a callback may re-enter
  // begin_reception (MAC responses), which must see a consistent set.
  const Reception rec = take_reception(slot);
  if (rec.corrupt) {
    ++collisions_;
    if (counters_ != nullptr) counters_->drop(net::DropReason::kCollision);
    if (cb_.on_rx_garbage) cb_.on_rx_garbage();
  } else if (rec.decodable && !transmitting()) {
    ++decoded_;
    if (counters_ != nullptr) ++counters_->mac_rx_frames;
    if (cb_.on_frame) cb_.on_frame(*rec.frame);
  } else if (!rec.decodable) {
    if (cb_.on_rx_garbage) cb_.on_rx_garbage();
  }
  medium_edge(/*was_busy=*/true);
}

std::uint32_t Radio::store_reception(const Frame& frame, double distance,
                                     bool corrupt, bool decodable) {
  std::uint32_t slot;
  Reception* rx;
  if (inline_used_ != (1u << kInlineReceptions) - 1) {
    slot = static_cast<std::uint32_t>(std::countr_one(inline_used_));
    inline_used_ |= 1u << slot;
    rx = &inline_[slot];
  } else {
    slot = spill_slot();
    rx = &spill_[slot - kInlineReceptions];
  }
  rx->frame = &frame;
  rx->distance = distance;
  rx->corrupt = corrupt;
  rx->decodable = decodable;
  return slot;
}

std::uint32_t Radio::spill_slot() {
  ++spilled_;
  std::size_t j = 0;
  while (j < spill_.size() && spill_[j].frame != nullptr) ++j;
  if (j == spill_.size()) spill_.emplace_back();
  return kInlineReceptions + static_cast<std::uint32_t>(j);
}

Radio::Reception Radio::take_reception(std::uint32_t slot) {
  if (slot < kInlineReceptions) {
    const std::uint32_t bit = 1u << slot;
    sim::require((inline_used_ & bit) != 0, "Radio: reception record lost");
    inline_used_ &= ~bit;
    return inline_[slot];
  }
  const std::size_t j = slot - kInlineReceptions;
  sim::require(j < spill_.size() && spill_[j].frame != nullptr,
               "Radio: reception record lost");
  const Reception rec = spill_[j];
  spill_[j].frame = nullptr;
  --spilled_;
  return rec;
}

void Radio::medium_edge(bool was_busy) {
  const bool busy = medium_busy();
  if (busy != was_busy && cb_.on_medium_busy) cb_.on_medium_busy(busy);
}

}  // namespace mts::phy
