#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/error.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace mts::sim {

/// Coarse subsystem attribution for executed events.  Call sites tag
/// their schedules so scale studies can see where a protocol's cycles
/// go (the 10k-node push needs to know whether AODV/MTS runs are
/// medium-bound or timer-bound before optimizing either).  Untagged
/// schedules land in kOther.
enum class EventCategory : std::uint8_t {
  kOther = 0,   ///< untagged (tests, harness glue)
  kChannel,     ///< per-receiver arrivals (delivery-wave steps)
  kPhy,         ///< radio tx-done / reception-end (delivery-wave steps)
  kMac,         ///< 802.11 access / backoff / response / SIFS timers
  kRouting,     ///< discovery timers, jittered rebroadcasts, purges
  kTransport,   ///< TCP RTO / start timers
  kSecurity,    ///< adversary/defense self-scheduled events
  kCount
};

inline constexpr std::size_t kEventCategoryCount =
    static_cast<std::size_t>(EventCategory::kCount);

const char* event_category_name(EventCategory c);

/// Identifies a scheduled event; usable to cancel it before it fires.
/// Encodes a slot index (low 32 bits, biased by one so 0 stays invalid)
/// and that slot's generation counter (high 32 bits): ids of fired or
/// cancelled events go stale the moment their slot is released, so a
/// stale cancel can never kill a newer event that recycled the slot.
using EventId = std::uint64_t;

/// Sentinel returned by schedulers for "no event".
inline constexpr EventId kInvalidEvent = 0;

/// The discrete-event core: a time-ordered queue of callbacks.
///
/// Ordering is total and deterministic: events fire by (time, insertion
/// sequence).  Two events scheduled for the same tick therefore run in
/// the order they were scheduled, independent of queue internals.
/// Rescheduling (Timer re-arm) assigns a fresh sequence number, so a
/// re-armed event orders exactly like a newly scheduled one — bit-for-bit
/// the behaviour of the old cancel + schedule idiom.
///
/// Two structures back the queue, both allocation-free in steady state:
///
/// 1. A slot pool of event records (chunked, recycled via a free list).
///    Each record stores the callback as a small-buffer-optimised
///    `EventFn` — for every closure in the stack's hot paths the capture
///    lives inline in the slot and schedule/cancel allocate nothing.
///
/// 2. A 4-ary min-heap of (time, key) entries.  The pending set stays
///    small even on 1k-node arenas (a few thousand events), so a plain
///    implicit heap beats a calendar queue, whose bucket width cannot fit
///    bursty per-receiver fan-outs and timers seconds out at once.
///    Cancel is amortised O(1): the slot's live key is reset and the
///    stale heap entry is discarded when it reaches the top (lazy
///    deletion); a compaction sweep bounds those tombstones by the live
///    count.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulation time.  Monotonically non-decreasing during run().
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()).  Inline:
  /// the closure is built straight into its pool slot.  `cat` attributes
  /// the execution to a subsystem (kept across reschedule()).
  EventId schedule_at(Time t, EventFn fn,
                      EventCategory cat = EventCategory::kOther) {
    const std::uint32_t s =
        add(t, reserve_seqs(1), std::move(fn), cat, /*wave=*/false);
    return make_id(s, slot_at(s).gen);
  }

  /// Schedules `fn` after `delay` (must be >= 0).
  EventId schedule_in(Time delay, EventFn fn,
                      EventCategory cat = EventCategory::kOther) {
    return schedule_at(now_ + delay, std::move(fn), cat);
  }

  /// Moves a pending event to absolute time `t` (>= now()), keeping its
  /// callback and id but ordering it like a fresh schedule (it draws a
  /// new sequence number).  Returns false if `id` already fired, was
  /// cancelled, or is invalid — the caller then schedules anew.  This is
  /// the Timer re-arm fast path: no closure is constructed and no slot
  /// churns; the event is re-keyed in place and its stale heap entry
  /// evaporates lazily.
  bool reschedule(EventId id, Time t);

  /// Cancels a pending event.  Returns false if it already fired, was
  /// already cancelled, or `id` is invalid.
  bool cancel(EventId id);

  /// Returns true iff `id` is pending (scheduled and not yet fired).
  [[nodiscard]] bool is_pending(EventId id) const {
    return lookup_index(id) != kNullIndex;
  }

  /// Runs events until the queue drains or stop() is called.
  void run();

  /// Runs events with timestamp <= `end`; afterwards now() == end (if the
  /// queue drained earlier, time still advances to `end`).  If stop()
  /// ends the run, now() stays at the event that called it.
  void run_until(Time end);

  /// Executes at most `n` events; returns the number actually executed.
  std::size_t run_steps(std::size_t n);

  /// Requests run()/run_until() to return after the current event.
  void stop() { stopped_ = true; }

  // --- Delivery waves ------------------------------------------------
  // A wave is one pending entry that runs a series of steps, each keyed
  // (time, seq) exactly as the individually scheduled event it stands
  // for, so pop order is the same as scheduling every step on its own.
  // The channel uses one wave per transmission instead of two events per
  // receiver.

  /// Reserves `k` consecutive sequence numbers and returns the first:
  /// the seqs `k` schedule calls made at this point would have drawn.
  std::uint64_t reserve_seqs(std::uint64_t k) {
    require(next_seq_ + k <= (1ull << 40),
            "Scheduler: sequence space exhausted");
    const std::uint64_t first = next_seq_;
    next_seq_ += k;
    return first;
  }

  /// Schedules a wave whose first step is keyed (t, seq), `seq` taken
  /// from reserve_seqs().  `step` runs once per step; it books the next
  /// step with continue_wave(), and the wave ends after a step that books
  /// none.  Each step counts as one executed event of its category.
  void schedule_wave(Time t, std::uint64_t seq, EventFn step,
                     EventCategory cat) {
    require(seq < next_seq_, "Scheduler: wave seq was not reserved");
    add(t, seq, std::move(step), cat, /*wave=*/true);
  }

  /// From inside a wave step only: keys the wave's next step at (t, seq)
  /// with t >= now() and `seq` taken from reserve_seqs().  When that key
  /// is still the queue's minimum, run()/run_until() run the step at once
  /// (no sift, no return to the dispatch loop) unless stop() was called
  /// or it lies past run_until()'s end; the order, now() and the counts
  /// are those of popping it.  run_steps() never chains.
  void continue_wave(Time t, std::uint64_t seq, EventCategory cat) {
    require(stepping_ != kNullIndex, "Scheduler: continue_wave outside a step");
    require(t >= now_, "Scheduler: cannot schedule into the past");
    wave_next_ = Entry{t, pack_key(seq, stepping_)};
    wave_next_cat_ = cat;
  }

  /// Pending entries; an in-flight wave counts as one, however many
  /// steps it has left.
  [[nodiscard]] std::size_t pending_count() const { return live_count_; }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }

  /// Executed events attributed to `cat` (see EventCategory).
  [[nodiscard]] std::uint64_t executed_count(EventCategory cat) const {
    return executed_by_[static_cast<std::size_t>(cat)];
  }

  /// Timestamp of the earliest pending event, or Time::max() when empty.
  Time next_event_time() const;

  /// Number of scheduled callbacks whose captures overflowed EventFn's
  /// inline buffer onto the heap.  The simulation data path is expected
  /// to keep this at zero; tests pin that invariant.
  [[nodiscard]] std::uint64_t heap_fallback_count() const {
    return heap_fallbacks_;
  }

  /// Entries the queue stores: pending events plus not-yet-discarded
  /// tombstones of cancelled or re-armed ones.  Bounded by
  /// 2 * pending_count() + 64.
  [[nodiscard]] std::size_t queued_entries() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kNullIndex = 0xffffffffu;
  /// Low 24 bits of a queue key name the slot; the high 40 bits are the
  /// insertion sequence.  Caps: 16.7M concurrently pending events, 1e12
  /// events per scheduler lifetime — both enforced.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  /// A live_key value no real key uses ("slot has no pending entry").
  static constexpr std::uint64_t kDeadKey = ~0ull;

  struct Slot {
    EventFn fn;
    /// Key of this slot's live heap entry; entries whose key no
    /// longer matches are tombstones discarded at drain time.
    std::uint64_t live_key = kDeadKey;
    std::uint32_t gen = 1;   ///< bumped on release; validates EventIds
    std::uint32_t next_free = kNullIndex;
    EventCategory cat = EventCategory::kOther;
    bool wave = false;  ///< `fn` is a wave step, run in place per step
  };

  /// Keyed (t, seq): ordering compares are two integer compares.  seq is
  /// globally unique, so `key` never ties and doubles as the (seq, slot)
  /// pack.
  struct Entry {
    Time t;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot

    [[nodiscard]] bool before(const Entry& other) const {
      if (t != other.t) return t < other.t;
      return key < other.key;
    }
  };

  [[nodiscard]] static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  /// Resolves an id to its live slot index, or kNullIndex when stale.
  [[nodiscard]] std::uint32_t lookup_index(EventId id) const {
    const auto biased = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (biased == 0 || biased > slot_count_) return kNullIndex;
    const std::uint32_t s = biased - 1;
    if (slot_at(s).gen != static_cast<std::uint32_t>(id >> 32)) return kNullIndex;
    return s;
  }

  /// Slots live in fixed chunks so the pool grows without relocating
  /// existing slots (an EventFn move per slot per growth step is pure
  /// waste) and without invalidating Slot references across reentrant
  /// schedule calls from inside callbacks.
  static constexpr std::uint32_t kChunkBits = 12;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  [[nodiscard]] Slot& slot_at(std::uint32_t s) {
    return chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t s) const {
    return chunks_[s >> kChunkBits][s & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t s);

  /// Mints the queue key for slot `s`: fresh insertion sequence in the
  /// high bits (the tie-break), slot index packed low.
  [[nodiscard]] std::uint64_t next_key(std::uint32_t s) {
    return pack_key(reserve_seqs(1), s);
  }
  [[nodiscard]] static std::uint64_t pack_key(std::uint64_t seq,
                                              std::uint32_t s) {
    return (seq << kSlotBits) | s;
  }

  /// Files `fn` in a fresh slot with a queue entry keyed (t, seq);
  /// returns the slot.
  std::uint32_t add(Time t, std::uint64_t seq, EventFn fn, EventCategory cat,
                    bool wave) {
    require(t >= now_, "Scheduler: cannot schedule into the past");
    require(static_cast<bool>(fn), "Scheduler: empty callback");
    if (!fn.is_inline()) ++heap_fallbacks_;
    const std::uint32_t s = acquire_slot();
    Slot& slot = slot_at(s);
    slot.fn = std::move(fn);
    slot.cat = cat;
    slot.wave = wave;
    slot.live_key = pack_key(seq, s);
    insert(Entry{t, slot.live_key});
    ++live_count_;
    return s;
  }

  [[nodiscard]] bool entry_dead(const Entry& e) const {
    return slot_at(static_cast<std::uint32_t>(e.key & kSlotMask)).live_key !=
           e.key;
  }

  // --- heap (mutable: const peeks drop dead tops, which changes storage
  // but not observable state) -------------------------------------------
  static constexpr std::size_t kArity = 4;

  void insert(Entry e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i) const;
  /// Removes the heap's minimum entry.
  void pop_min() const;
  /// Counts a new tombstone; once they outnumber max(64, live events),
  /// drops them all and re-heapifies, so storage stays O(pending).
  void add_tombstone();
  /// Pops dead tops.  Returns false when nothing is pending.
  bool peek_live() const;
  /// The minimum live entry; valid right after peek_live() == true.
  [[nodiscard]] const Entry& top() const { return heap_.front(); }
  /// Runs the live top event at its time; a wave runs its top step and
  /// then, in place, every following step keyed at or before `horizon`
  /// that would be the next pop.  Pre-condition: peek_live() returned
  /// true.
  void dispatch_top(Time horizon);
  void run_wave_steps(std::uint32_t s, Time horizon);
  /// Whether the root sorts before each of its children, i.e. is the
  /// minimum (tombstones included).
  [[nodiscard]] bool root_sorts_first() const;
  /// A horizon before every event: run_steps() runs one step per call.
  static constexpr Time kNoChaining = Time::ns(-1);

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::array<std::uint64_t, kEventCategoryCount> executed_by_{};
  std::uint64_t heap_fallbacks_ = 0;
  std::size_t live_count_ = 0;
  bool stopped_ = false;
  /// Slot of the wave whose step is running, and the step it booked.
  std::uint32_t stepping_ = kNullIndex;
  Entry wave_next_{};
  EventCategory wave_next_cat_ = EventCategory::kOther;

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNullIndex;

  /// (t, key) min-heap of live entries and tombstones.
  mutable std::vector<Entry> heap_;
  mutable std::size_t tombstones_ = 0;
};

}  // namespace mts::sim
