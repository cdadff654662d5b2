#include "sim/scheduler.hpp"

#include <algorithm>
#include <utility>

namespace mts::sim {

const char* event_category_name(EventCategory c) {
  switch (c) {
    case EventCategory::kOther: return "other";
    case EventCategory::kChannel: return "channel";
    case EventCategory::kPhy: return "phy";
    case EventCategory::kMac: return "mac";
    case EventCategory::kRouting: return "routing";
    case EventCategory::kTransport: return "transport";
    case EventCategory::kSecurity: return "security";
    case EventCategory::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Slot pool.
// ---------------------------------------------------------------------------

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNullIndex) {
    const std::uint32_t s = free_head_;
    Slot& slot = slot_at(s);
    free_head_ = slot.next_free;
    slot.next_free = kNullIndex;
    return s;
  }
  require(slot_count_ < kSlotMask, "Scheduler: slot pool exhausted");
  if ((slot_count_ & (kChunkSize - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  }
  return slot_count_++;
}

void Scheduler::release_slot(std::uint32_t s) {
  Slot& slot = slot_at(s);
  slot.fn.reset();
  slot.wave = false;
  slot.live_key = kDeadKey;  // any remaining heap entry tombstones
  ++slot.gen;                // ids referring to this slot go stale here
  slot.next_free = free_head_;
  free_head_ = s;
}

// ---------------------------------------------------------------------------
// Heap.
// ---------------------------------------------------------------------------

void Scheduler::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!e.before(heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::sift_down(std::size_t i) const {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Scheduler::pop_min() const {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Scheduler::add_tombstone() {
  if (++tombstones_ <= std::max<std::size_t>(64, live_count_)) return;
  std::erase_if(heap_, [this](const Entry& e) { return entry_dead(e); });
  tombstones_ = 0;
  for (std::size_t i = (heap_.size() + kArity - 2) / kArity; i-- > 0;) {
    sift_down(i);  // bottom-up heapify over the internal nodes
  }
}

bool Scheduler::peek_live() const {
  while (!heap_.empty() && entry_dead(heap_.front())) {
    pop_min();  // tombstone: cancelled, re-armed, or recycled
    --tombstones_;
  }
  return !heap_.empty();
}

void Scheduler::dispatch_top(Time horizon) {
  const Entry e = heap_.front();
  const auto s = static_cast<std::uint32_t>(e.key & kSlotMask);
  Slot& slot = slot_at(s);
  now_ = e.t;
  ++executed_;
  ++executed_by_[static_cast<std::size_t>(slot.cat)];
  if (slot.wave) {
    run_wave_steps(s, horizon);
    return;
  }
  pop_min();
  if (!heap_.empty()) {
    // Overlap the next event's slot line with this callback's execution.
    __builtin_prefetch(
        &slot_at(static_cast<std::uint32_t>(heap_.front().key & kSlotMask)),
        0, 1);
  }
  EventFn fn = std::move(slot.fn);
  release_slot(s);  // the event's id dies before its callback runs
  --live_count_;
  fn();
}

bool Scheduler::root_sorts_first() const {
  const std::size_t last = std::min<std::size_t>(kArity + 1, heap_.size());
  for (std::size_t c = 1; c < last; ++c) {
    if (heap_[c].before(heap_.front())) return false;
  }
  return true;
}

void Scheduler::run_wave_steps(std::uint32_t s, Time horizon) {
  // Each step runs with the wave's entry live at the root.  Everything
  // the step inserts sorts after it (time >= now_, a fresh seq), and a
  // compaction keeps it there (it is live and the minimum), so afterwards
  // the root is re-keyed in place instead of popped and pushed.  While
  // the re-keyed root still sorts before its children, the dispatch loop
  // would pick it next: unless stop() was called or the step lies past
  // the horizon, run it here.  A tombstone among the children only ends
  // the chain early.
  Slot& slot = slot_at(s);
  for (;;) {
    const std::uint64_t key = heap_.front().key;
    stepping_ = s;
    wave_next_.key = kDeadKey;
    slot.fn();
    stepping_ = kNullIndex;
    require(heap_.front().key == key, "Scheduler: wave entry left the root");
    if (wave_next_.key == kDeadKey) {
      pop_min();
      release_slot(s);
      --live_count_;
      return;
    }
    slot.live_key = wave_next_.key;
    slot.cat = wave_next_cat_;
    heap_.front() = wave_next_;
    if (stopped_ || wave_next_.t > horizon || !root_sorts_first()) {
      sift_down(0);
      return;
    }
    now_ = wave_next_.t;
    ++executed_;
    ++executed_by_[static_cast<std::size_t>(slot.cat)];
  }
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

bool Scheduler::reschedule(EventId id, Time t) {
  require(t >= now_, "Scheduler: cannot reschedule into the past");
  const std::uint32_t s = lookup_index(id);
  if (s == kNullIndex) return false;
  Slot& slot = slot_at(s);
  // Re-keying with a fresh seq orders the re-armed event exactly like a
  // new schedule; the old heap entry becomes a tombstone.
  slot.live_key = next_key(s);
  insert(Entry{t, slot.live_key});
  add_tombstone();
  return true;
}

bool Scheduler::cancel(EventId id) {
  const std::uint32_t s = lookup_index(id);
  if (s == kNullIndex) return false;
  release_slot(s);  // the heap entry tombstones via the live_key reset
  --live_count_;
  add_tombstone();
  return true;
}

Time Scheduler::next_event_time() const {
  return peek_live() ? top().t : Time::max();
}

void Scheduler::run() {
  stopped_ = false;
  while (!stopped_ && peek_live()) {
    dispatch_top(Time::max());
  }
}

void Scheduler::run_until(Time end) {
  require(end >= now_, "Scheduler: run_until into the past");
  stopped_ = false;
  while (!stopped_ && peek_live()) {
    if (top().t > end) break;
    dispatch_top(end);
  }
  // A stop() leaves now() at the stopping event: events before `end`
  // may still be pending, and advancing past them would run them with
  // time going backwards.
  if (!stopped_) now_ = end;
}

std::size_t Scheduler::run_steps(std::size_t n) {
  stopped_ = false;
  std::size_t done = 0;
  while (done < n && !stopped_ && peek_live()) {
    ++done;
    dispatch_top(kNoChaining);
  }
  return done;
}

}  // namespace mts::sim
