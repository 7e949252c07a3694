// Discrete-event core: a time-ordered queue of callbacks.
//
// Used by the dynamic scenarios (churn, flash crowds) where the fluid
// solver's steady-state answer is not enough. Events at equal timestamps
// fire in submission order (a monotone sequence number breaks ties), which
// keeps runs deterministic.
//
// Layout: three priority sources share one strict (time, seq) total
// order — seq is unique among queued entries, so the global pop order is
// independent of which structure holds an entry and identical to the old
// binary priority_queue.
//   1. A timing wheel of lazily-sorted buckets for near-future events
//      (the wire path: every message delivery lands base_latency+jitter
//      ahead of now). Insertion is a push_back; a bucket is sorted once,
//      when it becomes the drain front.
//   2. O(1) FIFO lanes for fixed-delay timers (schedule_after_fixed).
//   3. A flat 4-ary min-heap of 16-byte keys for everything else (far
//      future, sub-bucket delays) — the fallback that keeps the API
//      fully general.
// All three index a chunked arena of InplaceEvent callables with a free
// list: the POD keys make every sift/sort move a cheap 16-byte copy (the
// callables never move), chunking keeps slot addresses stable so step()
// invokes the handler in place (the old queue copied the std::function,
// re-allocating every captured wire buffer), and the small-buffer
// InplaceEvent keeps the steady-state schedule/step cycle
// allocation-free. The 32-bit seq is renumbered (order-preserving) on
// the ~never-taken wrap, so tie-break behaviour is exact at any length.
//
// Releasing a lane timer. A protocol timeout usually outlives its
// purpose: the request it guards is answered long before it expires, and
// until then its handler and captures hold an arena slot. release()
// takes the LaneTimer that schedule_after_fixed() returned and frees the
// handler at once: the callable is destroyed and its slot recycled. The
// 16-byte lane key stays where it is and pops at its time as a counted
// no-op (it advances now() and last_fired() and counts as executed, but
// runs nothing), so size(), next_time(), the (time, seq) order and every
// executed-event count are the same as if the timer had fired into a
// handler that did nothing. Releasing twice, after the timer fired, or
// after renumber() folded the lane into the heap is a no-op. Only lane
// entries can be released; wheel and heap entries always run.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "lesslog/sim/inplace_event.hpp"

namespace lesslog::sim {

using SimTime = double;
using EventFn = InplaceEvent;

/// Names one schedule_after_fixed() entry for EventQueue::release(). Four
/// bytes, so a record that keeps one can usually fit it in padding. A
/// default-constructed handle names nothing (so does the handle of a
/// timer admitted through the wheel/heap overflow path).
class LaneTimer {
 public:
  LaneTimer() = default;
  [[nodiscard]] explicit operator bool() const noexcept { return bits_ != 0; }

 private:
  friend class EventQueue;
  explicit LaneTimer(std::uint32_t bits) noexcept : bits_(bits) {}
  /// (lane index + 1) << kLanePosBits | the entry's lane position; 0 =
  /// none.
  std::uint32_t bits_ = 0;
};

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at` (must not precede now()).
  /// Safe to call from inside a running handler: the executing entry is
  /// popped off its structure before it is invoked.
  void schedule(SimTime at, EventFn fn);

  /// schedule() overload for raw callables: constructs the handler
  /// directly inside its arena slot (zero InplaceEvent relocates — the
  /// by-value overload pays two 56-byte moves per call).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceEvent> &&
                                        std::is_invocable_r_v<void, D&>>>
  void schedule(SimTime at, F&& fn) {
    push_entry(at, emplace_slot(std::forward<F>(fn)));
  }

  /// Schedules `fn` at now() + `delay`, where `delay` is drawn from a
  /// small set of fixed constants (protocol retry timeouts). Because now()
  /// is monotone, equal-delay events expire in scheduling order, so each
  /// distinct delay becomes an O(1) FIFO lane instead of a heap
  /// insertion; step() merges lanes and heap by the same strict
  /// (time, seq) key, so execution order is identical to schedule().
  /// Every distinct delay value occupies a lane for the queue's
  /// lifetime, and the table is capped at kMaxLanes: once full, an
  /// unseen delay (a computed timeout reaching this entry point by
  /// mistake) is admitted through the wheel/heap path with the identical
  /// (time, seq) key — execution order is unchanged, only the O(1) lane
  /// bypass is lost. Callers should still pass constants; adaptive
  /// timers belong on schedule(). Returns the handle release() takes
  /// (an empty one for an overflow admission, which cannot be released).
  LaneTimer schedule_after_fixed(SimTime delay, EventFn fn);

  /// schedule_after_fixed() overload for raw callables; see schedule().
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceEvent> &&
                                        std::is_invocable_r_v<void, D&>>>
  LaneTimer schedule_after_fixed(SimTime delay, F&& fn) {
    return push_lane_entry(delay, emplace_slot(std::forward<F>(fn)));
  }

  /// Frees a pending lane timer's handler now; its key still pops at its
  /// time as a counted no-op (see the header comment). A no-op for an
  /// empty handle and for a timer that already fired, was released, or
  /// was folded into the heap by renumber().
  void release(LaneTimer timer);

  /// Admits a contiguous run of `n` events in index order. Execution is
  /// byte-identical to n schedule() calls — seqs are assigned
  /// sequentially, so the (time, seq) pop order cannot tell the two
  /// apart — but the admission bookkeeping is paid per run instead of
  /// per event: the drain-front memo is invalidated once, and
  /// consecutive events landing in the same wheel bucket (the common
  /// case: a run shares one delivery window) reuse the bucket lookup.
  /// This is the sharded engine's mailbox-drain primitive — a cross-shard
  /// box holds a whole window's datagrams for one destination shard.
  /// `time(i)` returns event i's absolute time (must not precede now());
  /// `emit(i, fn)` constructs handler i into its arena slot.
  template <typename TimeFn, typename EmitFn>
  void schedule_batch(std::size_t n, TimeFn&& time, EmitFn&& emit) {
    if (n == 0) return;
    wheel_front_hint_ = nullptr;  // any insert may create an earlier front
    Bucket* run_bucket = nullptr;
    std::uint64_t run_bnum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const SimTime at = time(i);
      assert(at >= now_ && "cannot schedule into the past");
      const std::uint32_t slot = acquire_slot();
      emit(i, slot_ref(slot));
      if (next_seq_ == std::numeric_limits<std::uint32_t>::max()) {
        renumber();            // folds the wheel into the heap…
        run_bucket = nullptr;  // …so the cached bucket's contents moved
      }
      const Entry e = make_entry(at, next_seq_++, slot);
      const SimTime delay = at - now_;
      if (delay >= kWheelMinDelay && delay < kWheelMaxDelay) {
        const std::uint64_t bnum = bucket_of(at);
        Bucket* b = (run_bucket != nullptr && bnum == run_bnum)
                        ? run_bucket
                        : &wheel_[bnum & (kNumBuckets - 1)];
        run_bucket = b;
        run_bnum = bnum;
        if (!b->sorted) {
          b->v.push_back(e);
        } else {
          // Sorted = the drain front being consumed; see push_entry().
          auto pos = std::upper_bound(
              b->v.begin() + static_cast<std::ptrdiff_t>(b->head), b->v.end(),
              e, [](const Entry& a, const Entry& x) { return earlier(a, x); });
          b->v.insert(pos, e);
        }
        ++wheel_count_;
        continue;
      }
      push_heap_entry(e);
    }
  }

  /// Fixed-delay lane table bound (see schedule_after_fixed): protocol
  /// constants fit with room to spare; computed delays overflow into the
  /// wheel/heap instead of growing the min scan's per-event lane walk.
  static constexpr std::size_t kMaxLanes = 16;

  /// Distinct fixed delays currently occupying lanes (admission
  /// observability for tests; compares against kMaxLanes).
  [[nodiscard]] std::size_t lane_table_size() const noexcept {
    return lanes_.size();
  }

  [[nodiscard]] bool empty() const noexcept {
    return heap_.empty() && lane_count_ == 0 && wheel_count_ == 0;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + lane_count_ + wheel_count_;
  }
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] SimTime next_time() const;

  /// Time of the last event that actually fired. Unlike now() — which
  /// run_before() leaves on the (layout-dependent) window edge — this is
  /// a property of the executed event set alone, so a sharded run's
  /// max-over-shards last_fired() is identical at any shard count when
  /// the event sets are. The sharded SWIM driver anchors its epoch
  /// timeline here for exactly that reason.
  [[nodiscard]] SimTime last_fired() const noexcept { return last_fired_; }

  /// Pops and runs the earliest event; advances now(). Precondition:
  /// !empty().
  void step();

  /// Runs events until the queue is empty or the next event is after
  /// `until`; now() ends at min(until, last event time). Returns the
  /// number of events executed.
  std::int64_t run_until(SimTime until);

  /// Runs events strictly before `bound` and advances now() to `bound`
  /// (even when no event fired). This is the conservative-window
  /// primitive of the sharded engine: a shard may safely execute every
  /// event in [now, bound) when no cross-shard message can arrive before
  /// `bound`, and the barrier then leaves every shard's clock at the same
  /// window edge. An event at exactly `bound` stays queued — a message
  /// sent at the window start with the minimum link latency lands exactly
  /// on the edge and must be merged first. Returns the number executed.
  std::int64_t run_before(SimTime bound);

  /// Runs events until the queue is empty (one min-scan per event, like
  /// run_until but with no bound test). Returns the number executed.
  std::int64_t run_all();

  /// Moves the clock to `t` — in either direction — at quiescence.
  /// Precondition: the queue is empty (with no event pending, now() is
  /// just a number; nothing observes the move). The sharded engine uses
  /// this after run_all_windows() to park every shard's clock on the
  /// fleet-wide quiesce time instead of the last window edge: the edge
  /// depends on the window sequence (and hence the shard count), while
  /// the quiesce time is a property of the executed event set alone.
  void reset_clock(SimTime t) noexcept {
    assert(empty() && "reset_clock requires a quiescent queue");
    now_ = t;
  }

 private:
  /// Tests move the seq counter to the edge of its 2^32 wrap, to run
  /// renumber() without 2^32 schedules.
  friend struct EventQueueTestAccess;

  /// Heap key: (time, seq, slot) packed into two words. Simulation times
  /// are non-negative, so the IEEE-754 bit pattern of `at` is
  /// order-preserving as an unsigned integer; the full (time, seq)
  /// comparison is then one branchless 128-bit compare — the sift loops
  /// compare random timestamps, and a data-dependent branch there
  /// mispredicts ~half the time.
  struct Entry {
    std::uint64_t time_bits;  ///< bit_cast of `at` (>= +0.0)
    std::uint64_t seq_slot;   ///< seq << 32 | arena slot

    [[nodiscard]] SimTime at() const noexcept;
    [[nodiscard]] std::uint32_t seq() const noexcept {
      return static_cast<std::uint32_t>(seq_slot >> 32);
    }
    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(seq_slot);
    }
  };

  static Entry make_entry(SimTime at, std::uint32_t seq,
                          std::uint32_t slot) noexcept;

  /// Strict (time, seq) order; seq uniqueness makes it total. The slot in
  /// the low bits never decides: seqs differ first.
  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) noexcept {
#ifdef __SIZEOF_INT128__
    __extension__ using Key = unsigned __int128;
    const Key ka = static_cast<Key>(a.time_bits) << 64 | a.seq_slot;
    const Key kb = static_cast<Key>(b.time_bits) << 64 | b.seq_slot;
    return ka < kb;
#else
    // Bitwise (not short-circuit) so the compare stays branch-free.
    return (a.time_bits < b.time_bits) |
           ((a.time_bits == b.time_bits) & (a.seq_slot < b.seq_slot));
#endif
  }

  static constexpr std::size_t kChunkShift = 8;  ///< 256 handlers/chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  [[nodiscard]] EventFn& slot_ref(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  /// The slot field of a released lane key: no handler to run.
  static constexpr std::uint32_t kReleasedSlot =
      std::numeric_limits<std::uint32_t>::max();

  /// Bits of a LaneTimer that number the entry within its lane; the bits
  /// above hold the lane index + 1.
  static constexpr unsigned kLanePosBits = 27;
  static constexpr std::uint32_t kLanePosMask =
      (std::uint32_t{1} << kLanePosBits) - 1;
  static_assert(std::uint64_t{kMaxLanes} + 1 <=
                    (std::uint64_t{1} << (32 - kLanePosBits)),
                "the lane index + 1 must fit above the position bits");

  /// One fixed-delay FIFO of entries whose keys are strictly increasing
  /// (monotone now() + constant delay, monotone seq), so the front is
  /// always the lane's minimum. A deque rather than a power-of-two ring:
  /// it grows a block at a time, where a ring's double-and-copy holds
  /// both copies at the peak. Entries are numbered in push order (mod
  /// 2^kLanePosBits) and `head_pos` is the front's number, so a
  /// LaneTimer finds its key by one subtraction.
  struct Lane {
    SimTime delay = 0.0;
    std::deque<Entry> fifo;
    std::uint32_t head_pos = 0;

    Entry pop_front() noexcept {
      const Entry e = fifo.front();
      fifo.pop_front();
      head_pos = (head_pos + 1) & kLanePosMask;
      return e;
    }
  };

  // ---- Timing wheel ------------------------------------------------
  // Near-future entries (delay in [kWheelMinDelay, kWheelMaxDelay)) go
  // into a circular array of buckets keyed by floor(time / width). A
  // bucket fills by push_back (unsorted) and is sorted by the exact
  // (time, seq) key exactly once — lazily, when the min scan first needs
  // its front. From that moment new entries can only land in the sorted
  // drain-front bucket via the rare now+tiny-delay path, which does an
  // ordered insert, so the front of the drain-front bucket is always the
  // wheel's global minimum. Aliasing is impossible: live wheel entries
  // span at most kNumBuckets-1 consecutive bucket numbers (times are
  // >= now and admission bounds delay below (kNumBuckets-2) * width).

  static constexpr std::size_t kNumBuckets = 32;  ///< power of two
  /// Buckets per simulated second (nominal width 2 ms). Only
  /// monotonicity of the time->bucket map matters for correctness.
  static constexpr double kInvBucketWidth = 500.0;
  static constexpr SimTime kWheelMinDelay = 2.0 / kInvBucketWidth;
  static constexpr SimTime kWheelMaxDelay =
      static_cast<double>(kNumBuckets - 2) / kInvBucketWidth;

  [[nodiscard]] static std::uint64_t bucket_of(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t * kInvBucketWidth);
  }

  /// One wheel bucket. Entries [0, head) are already popped; [head, end)
  /// are live. `sorted` flips when the bucket becomes the drain front.
  struct Bucket {
    std::vector<Entry> v;
    std::size_t head = 0;
    bool sorted = false;
  };

  /// Which source holds the global minimum: kWheel, kHeap, or a lane
  /// index >= 0.
  static constexpr int kHeap = -1;
  static constexpr int kWheel = -2;

  /// Reserves an arena slot (recycled or fresh). The caller fills
  /// slot_ref() itself — taking the EventFn here by value would cost one
  /// extra 56-byte relocate per schedule.
  [[nodiscard]] std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    assert(arena_used_ < kReleasedSlot && "arena slot index overflow");
    const std::uint32_t slot = arena_used_++;
    if ((slot & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<EventFn[]>(kChunkSize));
    }
    return slot;
  }

  /// Reserves a slot and constructs the callable directly into it.
  template <typename F>
  [[nodiscard]] std::uint32_t emplace_slot(F&& fn) {
    const std::uint32_t slot = acquire_slot();
    slot_ref(slot).emplace(std::forward<F>(fn));
    return slot;
  }

  /// Keys `slot` at absolute time `at` and routes the entry into the
  /// wheel or the heap.
  void push_entry(SimTime at, std::uint32_t slot);
  /// Appends `e` to the 4-ary heap and sifts it up.
  void push_heap_entry(Entry e);
  /// Keys `slot` at now() + `delay` and appends it to `delay`'s lane.
  LaneTimer push_lane_entry(SimTime delay, std::uint32_t slot);
  /// Order-preserving seq compaction; runs once per 2^32 schedules.
  void renumber();
  /// First nonempty bucket at or after now(), sorted on first touch.
  /// Precondition: wheel_count_ > 0. Logically-const lazy sort.
  [[nodiscard]] Bucket& wheel_front() const noexcept;
  /// Source holding the earliest entry. Precondition: !empty().
  [[nodiscard]] int min_source() const noexcept;
  /// Pops the earliest entry of `source` (repairing that structure).
  Entry pop_source(int source) noexcept;
  /// Pops the heap root; sifts down. Precondition: heap non-empty.
  Entry pop_heap_root() noexcept;
  /// Runs the popped entry `top`: moves the clock to its time, then
  /// invokes and destroys its handler and recycles the slot. A released
  /// key only moves the clock.
  void fire(Entry top);

  std::vector<Entry> heap_;  ///< flat 4-ary min-heap of keys
  std::vector<Lane> lanes_;  ///< one per distinct fixed delay (few)
  std::size_t lane_count_ = 0;  ///< total entries across lanes_
  /// The wheel. Mutable: the min scan sorts a bucket in place the first
  /// time it becomes the drain front (an order-preserving representation
  /// change, observable-state-const).
  mutable std::array<Bucket, kNumBuckets> wheel_{};
  std::size_t wheel_count_ = 0;  ///< total live entries across wheel_
  /// Memoized drain-front bucket: valid between a min scan and the next
  /// wheel mutation (cleared by wheel pops and wheel inserts), so the
  /// scan-then-pop pairs in step()/run_until()/run_all() walk the empty
  /// leading buckets once, not twice.
  mutable Bucket* wheel_front_hint_ = nullptr;
  /// Handler arena. Chunked so addresses are stable across growth: a
  /// handler is invoked in place while new events (and chunks) arrive.
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;  ///< recycled arena indices
  std::uint32_t arena_used_ = 0;           ///< slots handed out ever
  SimTime now_ = 0.0;
  SimTime last_fired_ = 0.0;  ///< time of the last executed event
  std::uint32_t next_seq_ = 0;
};

inline SimTime EventQueue::Entry::at() const noexcept {
  return std::bit_cast<SimTime>(time_bits);
}

inline EventQueue::Entry EventQueue::make_entry(SimTime at, std::uint32_t seq,
                                                std::uint32_t slot) noexcept {
  // +0.0 canonicalizes a -0.0 timestamp, whose sign bit would otherwise
  // sort it above every positive time.
  return Entry{std::bit_cast<std::uint64_t>(at + 0.0),
               std::uint64_t{seq} << 32 | slot};
}

}  // namespace lesslog::sim
