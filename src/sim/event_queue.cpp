#include "lesslog/sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace lesslog::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

void EventQueue::renumber() {
  // next_seq_ wrapped (one full 2^32-schedule epoch). Queued entries keep
  // their relative (at, seq) order; compacting their seqs to 0..n-1 frees
  // the space above for the next epoch. Lane and wheel entries are folded
  // into the heap (an entry is valid wherever its key sorts), and an
  // ascending sort is trivially a valid min-heap, so the heap is rebuilt
  // by construction.
  for (Lane& lane : lanes_) {
    while (!lane.fifo.empty()) heap_.push_back(lane.pop_front());
  }
  lane_count_ = 0;
  for (Bucket& b : wheel_) {
    for (std::size_t i = b.head; i < b.v.size(); ++i) heap_.push_back(b.v[i]);
    b.v.clear();
    b.head = 0;
    b.sorted = false;
  }
  wheel_count_ = 0;
  wheel_front_hint_ = nullptr;
  std::sort(heap_.begin(), heap_.end(),
            [](const Entry& a, const Entry& b) { return earlier(a, b); });
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    heap_[i] = make_entry(heap_[i].at(), static_cast<std::uint32_t>(i),
                          heap_[i].slot());
  }
  next_seq_ = static_cast<std::uint32_t>(heap_.size());
}

void EventQueue::schedule(SimTime at, EventFn fn) {
  assert(fn && "cannot schedule an empty event");
  const std::uint32_t slot = acquire_slot();
  slot_ref(slot) = std::move(fn);
  push_entry(at, slot);
}

void EventQueue::push_entry(SimTime at, std::uint32_t slot) {
  assert(at >= now_ && "cannot schedule into the past");
  if (next_seq_ == std::numeric_limits<std::uint32_t>::max()) renumber();
  const Entry e = make_entry(at, next_seq_++, slot);
  const SimTime delay = at - now_;
  if (delay >= kWheelMinDelay && delay < kWheelMaxDelay) {
    // Near-future fast path (every wire delivery): push into the wheel
    // bucket of `at`. An already-sorted bucket is the drain front being
    // consumed; keep it sorted with an ordered insert (`e` is newer than
    // every popped entry, so the position is never below head).
    Bucket& b = wheel_[bucket_of(at) & (kNumBuckets - 1)];
    wheel_front_hint_ = nullptr;  // the insert may create an earlier front
    if (!b.sorted) {
      b.v.push_back(e);
    } else {
      auto pos = std::upper_bound(
          b.v.begin() + static_cast<std::ptrdiff_t>(b.head), b.v.end(), e,
          [](const Entry& a, const Entry& x) { return earlier(a, x); });
      b.v.insert(pos, e);
    }
    ++wheel_count_;
    return;
  }
  push_heap_entry(e);
}

void EventQueue::push_heap_entry(Entry e) {
  heap_.push_back(e);
  std::size_t hole = heap_.size() - 1;
  // Steady-state fast path: most new events land after their parent (the
  // heap is keyed by future times), so test once before paying the
  // hole-shuffle copies.
  if (hole == 0 || !earlier(e, heap_[(hole - 1) / kArity])) {
    return;
  }
  do {
    const std::size_t parent = (hole - 1) / kArity;
    heap_[hole] = heap_[parent];
    hole = parent;
  } while (hole != 0 && earlier(e, heap_[(hole - 1) / kArity]));
  heap_[hole] = e;
}

LaneTimer EventQueue::schedule_after_fixed(SimTime delay, EventFn fn) {
  assert(fn && "cannot schedule an empty event");
  const std::uint32_t slot = acquire_slot();
  slot_ref(slot) = std::move(fn);
  return push_lane_entry(delay, slot);
}

LaneTimer EventQueue::push_lane_entry(SimTime delay, std::uint32_t slot) {
  assert(delay >= 0.0 && "cannot schedule into the past");
  Lane* lane = nullptr;
  for (Lane& candidate : lanes_) {
    if (candidate.delay == delay) {
      lane = &candidate;
      break;
    }
  }
  if (lane == nullptr) {
    if (lanes_.size() >= kMaxLanes) {
      // Lane table full: this delay is not one of the protocol constants
      // the lanes exist for. Admit through the general wheel/heap path —
      // same (time, seq) key, so the pop order is indistinguishable; only
      // the O(1) lane bypass is lost for this entry.
      push_entry(now_ + delay, slot);
      return LaneTimer{};
    }
    // Reserved whole on first use, so a new lane never moves the others.
    if (lanes_.empty()) lanes_.reserve(kMaxLanes);
    lanes_.push_back(Lane{delay, {}, 0});
    lane = &lanes_.back();
  }
  // renumber() after the lane lookup: it drains entries in place without
  // reshaping lanes_, so `lane` stays valid across the fold.
  if (next_seq_ == std::numeric_limits<std::uint32_t>::max()) renumber();
  const Entry e = make_entry(now_ + delay, next_seq_++, slot);
  // The FIFO invariant that makes the lane a valid priority queue: keys
  // enter in strictly increasing order (now() is monotone, x + delay is
  // monotone in x, and seq always grows).
  assert(lane->fifo.empty() || earlier(lane->fifo.back(), e));
  // Positions are unambiguous while a lane holds fewer than 2^27 keys.
  assert(lane->fifo.size() < kLanePosMask);
  const std::uint32_t pos =
      (lane->head_pos + static_cast<std::uint32_t>(lane->fifo.size())) &
      kLanePosMask;
  lane->fifo.push_back(e);
  ++lane_count_;
  const auto index = static_cast<std::uint32_t>(lane - lanes_.data());
  return LaneTimer{(index + 1) << kLanePosBits | pos};
}

void EventQueue::release(LaneTimer timer) {
  if (!timer) return;
  const std::uint32_t index = (timer.bits_ >> kLanePosBits) - 1;
  assert(index < lanes_.size() && "a LaneTimer from another queue");
  Lane& lane = lanes_[index];
  // Entries before the front have fired (or were folded into the heap):
  // their offset wraps to a huge value.
  const std::uint32_t offset =
      ((timer.bits_ & kLanePosMask) - lane.head_pos) & kLanePosMask;
  if (offset >= lane.fifo.size()) return;
  Entry& e = lane.fifo[offset];
  const std::uint32_t slot = e.slot();
  if (slot == kReleasedSlot) return;
  slot_ref(slot) = EventFn{};
  free_slots_.push_back(slot);
  e.seq_slot |= kReleasedSlot;  // the seq stays: the pop order is unchanged
}

EventQueue::Bucket& EventQueue::wheel_front() const noexcept {
  // Live wheel entries all have times in [now, now + span), i.e. bucket
  // numbers in [bucket_of(now), bucket_of(now) + kNumBuckets - 1], so
  // the scan finds a nonempty bucket within one revolution. A bucket is
  // sorted exactly when it first becomes this front; from then until it
  // drains, only the ordered-insert path in schedule() can add to it.
  if (wheel_front_hint_ != nullptr) return *wheel_front_hint_;
  std::uint64_t b = bucket_of(now_);
  for (;;) {
    Bucket& bucket = wheel_[b & (kNumBuckets - 1)];
    if (bucket.head < bucket.v.size()) {
      if (!bucket.sorted) {
        std::sort(bucket.v.begin(), bucket.v.end(),
                  [](const Entry& a, const Entry& x) { return earlier(a, x); });
        bucket.sorted = true;
      }
      wheel_front_hint_ = &bucket;
      return bucket;
    }
    ++b;
  }
}

int EventQueue::min_source() const noexcept {
  const Entry* best = heap_.empty() ? nullptr : &heap_.front();
  int source = kHeap;
  if (wheel_count_ > 0) {
    const Bucket& front = wheel_front();
    if (best == nullptr || earlier(front.v[front.head], *best)) {
      best = &front.v[front.head];
      source = kWheel;
    }
  }
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = lanes_[i];
    if (lane.fifo.empty()) continue;
    if (best == nullptr || earlier(lane.fifo.front(), *best)) {
      best = &lane.fifo.front();
      source = static_cast<int>(i);
    }
  }
  return source;
}

EventQueue::Entry EventQueue::pop_source(int source) noexcept {
  if (source == kHeap) return pop_heap_root();
  if (source == kWheel) {
    Bucket& front = wheel_front();  // hint hit: set by the min scan
    const Entry e = front.v[front.head++];
    if (front.head == front.v.size()) {
      // Drained: reset and drop the hint. While entries remain, this
      // bucket is still the first nonempty one, so the hint stays.
      front.v.clear();
      front.head = 0;
      front.sorted = false;
      wheel_front_hint_ = nullptr;
    }
    --wheel_count_;
    return e;
  }
  --lane_count_;
  return lanes_[static_cast<std::size_t>(source)].pop_front();
}

SimTime EventQueue::next_time() const {
  assert(!empty());
  const int source = min_source();
  if (source == kHeap) return heap_.front().at();
  if (source == kWheel) {
    const Bucket& front = wheel_front();
    return front.v[front.head].at();
  }
  return lanes_[static_cast<std::size_t>(source)].fifo.front().at();
}

EventQueue::Entry EventQueue::pop_heap_root() noexcept {
  const Entry top = heap_.front();
  const std::size_t n = heap_.size() - 1;
  if (n > 0) {
    const Entry last = heap_.back();
    heap_.pop_back();
    // Bottom-up sift: walk the min-child path all the way to a leaf
    // without testing `last` (a random recent key almost always belongs
    // near the bottom, so that per-level test is both mispredicted and
    // usually true), then sift `last` up the short remaining distance.
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = kArity * hole + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kArity, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(heap_[c], heap_[best])) best = c;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    while (hole != 0 && earlier(last, heap_[(hole - 1) / kArity])) {
      const std::size_t parent = (hole - 1) / kArity;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = last;
  } else {
    heap_.pop_back();
  }
  return top;
}

void EventQueue::step() {
  assert(!empty());
  // The earliest entry across the wheel, the heap and every lane is
  // popped and its source repaired before the handler runs. Guarantee: a
  // handler may call schedule()/schedule_after_fixed() freely during its
  // own execution — it only ever observes consistent containers, they may
  // reallocate with no live references into them, and the handler itself
  // sits at a chunk-stable arena address (its slot is not recycled until
  // after it returns).
  fire(pop_source(min_source()));
}

void EventQueue::fire(Entry top) {
  now_ = top.at();
  last_fired_ = now_;
  const std::uint32_t slot = top.slot();
  if (slot == kReleasedSlot) return;
  EventFn& fn = slot_ref(slot);
  fn();
  fn = EventFn{};  // destroy the handler; the storage stays in the arena
  free_slots_.push_back(slot);
}

std::int64_t EventQueue::run_until(SimTime until) {
  std::int64_t executed = 0;
  // One min scan per event (not one for the bound check plus one inside
  // step()): find the earliest source, test it against the bound, pop.
  while (!empty()) {
    const int source = min_source();
    SimTime at;
    if (source == kHeap) {
      at = heap_.front().at();
    } else if (source == kWheel) {
      const Bucket& front = wheel_front();
      at = front.v[front.head].at();
    } else {
      at = lanes_[static_cast<std::size_t>(source)].fifo.front().at();
    }
    if (at > until) break;
    fire(pop_source(source));
    ++executed;
  }
  now_ = std::max(now_, until);
  return executed;
}

std::int64_t EventQueue::run_before(SimTime bound) {
  std::int64_t executed = 0;
  while (!empty()) {
    const int source = min_source();
    SimTime at;
    if (source == kHeap) {
      at = heap_.front().at();
    } else if (source == kWheel) {
      const Bucket& front = wheel_front();
      at = front.v[front.head].at();
    } else {
      at = lanes_[static_cast<std::size_t>(source)].fifo.front().at();
    }
    if (at >= bound) break;
    fire(pop_source(source));
    ++executed;
  }
  now_ = std::max(now_, bound);
  return executed;
}

std::int64_t EventQueue::run_all() {
  std::int64_t executed = 0;
  while (!empty()) {
    fire(pop_source(min_source()));
    ++executed;
  }
  return executed;
}

}  // namespace lesslog::sim
