#include "phy/channel.hpp"

#include <algorithm>

#include "phy/radio.hpp"
#include "sim/error.hpp"

namespace mts::phy {

Channel::Channel(sim::Scheduler& sched, const PropagationModel& prop,
                 ChannelConfig cfg)
    : sched_(&sched), prop_(&prop), cfg_(cfg) {
  sim::require_config(cfg.cs_range_factor >= 1.0,
                      "Channel: cs_range_factor < 1");
}

void Channel::attach(Radio* radio, const mobility::MobilityModel* mobility) {
  sim::require(radio != nullptr && mobility != nullptr,
               "Channel: null attach");
  sim::require(radio->id() == entries_.size(),
               "Channel: radio ids must be dense and in attach order");
  entries_.push_back(Entry{radio, mobility});
  radio->set_channel(this);
  max_speed_ = std::max(max_speed_, mobility->max_speed());
}

void Channel::finalize() {
  if (!cfg_.use_spatial_index || entries_.empty()) return;
  const double cell = prop_->max_range() * cfg_.cs_range_factor;
  index_ = std::make_unique<NeighborIndex>(
      static_cast<std::uint32_t>(entries_.size()), cell, max_speed_,
      cfg_.index_rebuild_period,
      [this](std::uint32_t id, sim::Time t) {
        return entries_[id].mobility->position_at(t);
      });
  // Every live query — radiate/neighbors_of at scheduler-now, the next
  // snapshot itself — happens at or after the previous snapshot time, so
  // each rebuild retires the trajectory history behind the one before it
  // (one rebuild period of slack).  This is what keeps mobility memory
  // flat over long runs: without it every model's leg list grows
  // O(sim-time).
  index_->set_snapshot_hook([this](sim::Time prev, sim::Time /*now*/) {
    for (const Entry& e : entries_) e.mobility->trim_history_before(prev);
  });
}

mobility::MobilityStats Channel::mobility_stats() const {
  mobility::MobilityStats total;
  for (const Entry& e : entries_) {
    const mobility::MobilityStats s = e.mobility->stats();
    total.generated += s.generated;
    total.pruned += s.pruned;
    total.live += s.live;
    total.peak_live = std::max(total.peak_live, s.peak_live);
  }
  return total;
}

void Channel::transmit(net::NodeId sender, const Frame& frame,
                       sim::Time airtime) {
  const sim::Time now = sched_->now();
  const mobility::Vec2 sp = position_of(sender, now);
  if (sniffer_) sniffer_(sender, sp, frame, airtime, now);
  radiate(sender, sp, frame, airtime);
}

void Channel::inject(net::NodeId as_sender, const mobility::Vec2& from_pos,
                     const Frame& frame, sim::Time airtime) {
  radiate(as_sender, from_pos, frame, airtime);
}

void Channel::radiate(net::NodeId sender, const mobility::Vec2& sp,
                      const Frame& frame, sim::Time airtime) {
  const sim::Time now = sched_->now();
  const double decode_r = prop_->max_range();
  const double cs_r = decode_r * cfg_.cs_range_factor;
  Wave& w = acquire_wave();

  auto offer = [&](net::NodeId id) {
    if (id == sender) return;
    const mobility::Vec2 rp = position_of(id, now);
    const double d2 = mobility::distance_sq(sp, rp);
    if (d2 > cs_r * cs_r) return;
    const bool decodable = prop_->link_up(sender, sp, id, rp, now);
    const double d = std::sqrt(d2);
    w.arrivals.push_back(Wave::Arrival{{now + propagation_delay(d), 0},
                                       entries_[id].radio, d, decodable});
  };

  if (index_ != nullptr) {
    for (net::NodeId id : index_->candidates(sp, cs_r, now)) offer(id);
  } else {
    for (net::NodeId id = 0; id < entries_.size(); ++id) offer(id);
  }
  if (w.arrivals.empty()) {
    release_wave(w);
    return;
  }
  // One seq per arrival, in candidate order: the keys a separate event
  // per receiver would carry, so batching does not change the order.
  std::uint64_t seq = sched_->reserve_seqs(w.arrivals.size());
  for (Wave::Arrival& a : w.arrivals) a.key.seq = seq++;
  std::sort(w.arrivals.begin(), w.arrivals.end(),
            [](const Wave::Arrival& a, const Wave::Arrival& b) {
              return a.key < b.key;
            });
  // One payload reference for the whole fan-out (a refcount bump).
  w.frame = frame;
  w.airtime = airtime;
  w.end_next = false;
  const Wave::Key& first = w.arrivals.front().key;
  sched_->schedule_wave(first.t, first.seq, [this, &w] { step(w); },
                        sim::EventCategory::kChannel);
}

void Channel::step(Wave& w) {
  if (w.end_next) {
    const Wave::End e = w.ends[w.next_end++];
    e.radio->end_reception(e.slot);
  } else {
    const Wave::Arrival a = w.arrivals[w.next_arrival++];
    if (const auto end = a.radio->begin_reception(w.frame, w.airtime,
                                                  a.decodable, a.distance)) {
      // Arrivals run in (t, seq) order, every end is its arrival plus
      // the one shared airtime, and each end's seq is drawn later than
      // the one before: ends arrive sorted.
      const Wave::Key key{end->t, end->seq};
      sim::require(w.ends.empty() || w.ends.back().key < key,
                   "Channel: wave end booked out of order");
      w.ends.push_back(Wave::End{key, a.radio, end->slot});
    }
  }
  const bool arrivals_left = w.next_arrival < w.arrivals.size();
  const bool ends_left = w.next_end < w.ends.size();
  if (!arrivals_left && !ends_left) {
    release_wave(w);
    return;
  }
  w.end_next = ends_left && (!arrivals_left ||
                             w.ends[w.next_end].key < w.arrivals[w.next_arrival].key);
  const Wave::Key& next =
      w.end_next ? w.ends[w.next_end].key : w.arrivals[w.next_arrival].key;
  sched_->continue_wave(next.t, next.seq,
                        w.end_next ? sim::EventCategory::kPhy
                                   : sim::EventCategory::kChannel);
}

Channel::Wave& Channel::acquire_wave() {
  if (free_waves_.empty()) {
    waves_.push_back(std::make_unique<Wave>());
    return *waves_.back();
  }
  Wave& w = *free_waves_.back();
  free_waves_.pop_back();
  return w;
}

void Channel::release_wave(Wave& w) {
  w.frame.payload.reset();  // the last reception that read it has ended
  w.arrivals.clear();
  w.ends.clear();
  w.next_arrival = 0;
  w.next_end = 0;
  free_waves_.push_back(&w);
}

void Channel::neighbors_of(net::NodeId id, sim::Time t,
                           NeighborVec& out) const {
  out.clear();
  const mobility::Vec2 p = position_of(id, t);
  const auto consider = [&](net::NodeId other) {
    if (other == id) return;
    if (prop_->in_range(p, position_of(other, t))) out.push_back(other);
  };
  if (index_ != nullptr) {
    // The grid returns a superset (snapshot positions + staleness
    // margin) in bucket order; re-filter with exact positions and sort
    // so callers see the same ascending ids as the O(N) scan.
    for (net::NodeId other : index_->candidates(p, prop_->max_range(), t)) {
      consider(other);
    }
    std::sort(out.begin(), out.end());
  } else {
    for (net::NodeId other = 0; other < entries_.size(); ++other) {
      consider(other);
    }
  }
}

}  // namespace mts::phy
