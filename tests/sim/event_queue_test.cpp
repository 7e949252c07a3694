#include "lesslog/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "lesslog/util/rng.hpp"

namespace lesslog::sim {

/// Moves a queue's seq counter so that the next schedule renumbers.
struct EventQueueTestAccess {
  static void wrap_next_schedule(EventQueue& q) {
    q.next_seq_ = std::numeric_limits<std::uint32_t>::max();
  }
};

namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  const EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0.0);
}

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&order] { order.push_back(3); });
  q.schedule(1.0, [&order] { order.push_back(1); });
  q.schedule(2.0, [&order] { order.push_back(2); });
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 10.0);
}

TEST(EventQueue, TiesBreakInSubmissionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, StepAdvancesClock) {
  EventQueue q;
  q.schedule(2.5, [] {});
  EXPECT_EQ(q.next_time(), 2.5);
  q.step();
  EXPECT_EQ(q.now(), 2.5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&fired] { ++fired; });
  q.schedule(5.0, [&fired] { ++fired; });
  EXPECT_EQ(q.run_until(3.0), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 3.0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_until(5.0), 1);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, InclusiveBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule(3.0, [&fired] { ++fired; });
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, HandlersMayScheduleMoreEvents) {
  EventQueue q;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(q.now());
    if (q.now() < 4.0) q.schedule(q.now() + 1.0, chain);
  };
  q.schedule(1.0, chain);
  q.run_until(100.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(EventQueue, ClockNeverRewinds) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run_until(10.0);
  EXPECT_EQ(q.now(), 10.0);
  q.run_until(2.0);  // lower bound: must not rewind
  EXPECT_EQ(q.now(), 10.0);
}

// -- Ordering guarantees across the wheel / lane / heap sources ----------

// Same-timestamp events pop in schedule order regardless of which
// internal structure holds them. 0.010 lands in the timing wheel (wire
// delays), 1.0 in the heap; both must be FIFO within a timestamp.
TEST(EventQueueOrder, ManySameTimestampEventsAreFifo) {
  for (const double at : {0.010, 1.0}) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      q.schedule(at, [&order, i] { order.push_back(i); });
    }
    q.run_until(at);
    ASSERT_EQ(order.size(), 500u);
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  }
}

// A handler scheduling into the wheel bucket that is currently being
// drained (the sorted front) must keep that bucket ordered: new entries
// land between the remaining ones by time, after them on ties.
TEST(EventQueueOrder, ScheduleIntoDrainingWheelBucket) {
  EventQueue q;
  std::vector<char> order;
  q.schedule(0.010, [&order] { order.push_back('b'); });
  q.schedule(0.0108, [&order] { order.push_back('e'); });
  // Runs first (short delays stay on the heap) with the wheel non-empty:
  // the min scan has already sorted the front bucket, so these inserts
  // take the ordered-insert path into a sorted, partially-drained bucket.
  q.schedule(0.001, [&order, &q] {
    order.push_back('a');
    q.schedule(0.0101, [&order] { order.push_back('c'); });
    q.schedule(0.0105, [&order] { order.push_back('d'); });
  });
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd', 'e'}));
}

// Fixed-delay lane events interleave correctly with wheel and heap
// events at identical and neighbouring timestamps.
TEST(EventQueueOrder, FixedLanesInterleaveWithWheelAndHeap) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_after_fixed(0.25, [&order] { order.push_back(3); });  // lane
  q.schedule(0.010, [&order] { order.push_back(1); });             // wheel
  q.schedule(0.25, [&order] { order.push_back(4); });   // heap, tie with 3
  q.schedule(0.010, [&order] { order.push_back(2); });  // wheel, tie with 1
  q.schedule(5.0, [&order] { order.push_back(5); });    // heap
  q.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

// Stress: handlers schedule more events mid-step with delays spanning
// the wheel window, the heap, and fixed lanes. The executed sequence
// must equal the (time, schedule-order) sort of everything scheduled —
// the strict total order the simulation's determinism rests on.
TEST(EventQueueOrder, ScheduleDuringStepStressMatchesTotalOrder) {
  EventQueue q;
  util::Rng rng(0xC0FFEEULL);
  std::vector<std::pair<double, std::uint64_t>> executed;
  std::uint64_t scheduled = 0;
  int budget = 4000;

  const auto pick_delay = [&rng]() -> double {
    switch (rng.bounded(4)) {
      case 0: return 0.001 + rng.uniform01() * 0.002;  // below the wheel
      case 1: return 0.004 + rng.uniform01() * 0.055;  // wheel window
      case 2: return 0.060 + rng.uniform01() * 2.0;    // heap
      default: return 0.0;                             // immediate tie-land
    }
  };

  std::function<void(std::uint64_t)> handler =
      [&](std::uint64_t seq) {
        executed.emplace_back(q.now(), seq);
        while (budget > 0 && rng.bounded(3) == 0) {
          --budget;
          const std::uint64_t id = scheduled++;
          if (rng.bounded(8) == 0) {
            q.schedule_after_fixed(0.25, [&handler, id] { handler(id); });
          } else {
            q.schedule(q.now() + pick_delay(),
                       [&handler, id] { handler(id); });
          }
        }
      };

  for (int i = 0; i < 200; ++i) {
    const std::uint64_t id = scheduled++;
    q.schedule(rng.uniform01() * 0.5, [&handler, id] { handler(id); });
  }
  q.run_until(1e9);

  ASSERT_EQ(executed.size(), scheduled);
  // (time, schedule seq) must be strictly increasing lexicographically:
  // time never rewinds and ties always break in schedule order.
  for (std::size_t i = 1; i < executed.size(); ++i) {
    const auto& [t0, s0] = executed[i - 1];
    const auto& [t1, s1] = executed[i];
    ASSERT_TRUE(t1 > t0 || (t1 == t0 && s1 > s0))
        << "order violated at pop " << i;
  }
}

// -- Timing-wheel admission boundaries -----------------------------------
//
// The wheel takes delays in [kWheelMinDelay, kWheelMaxDelay) =
// [0.004, 0.060) (private constants; values asserted here so a silent
// retune fails loudly). Events on either side of each boundary route to
// different structures yet must keep the global (time, schedule-order)
// total order.

TEST(EventQueueEdge, ExactWheelMinDelayBoundary) {
  EventQueue q;
  std::vector<int> order;
  const double kMin = 0.004;  // == EventQueue's kWheelMinDelay
  q.schedule(kMin, [&order] { order.push_back(1); });  // wheel (admitted)
  q.schedule(std::nextafter(kMin, 0.0),
             [&order] { order.push_back(0); });        // heap (just below)
  q.schedule(kMin, [&order] { order.push_back(2); });  // wheel, tie with 1
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), kMin);
}

TEST(EventQueueEdge, ExactWheelMaxDelayBoundary) {
  EventQueue q;
  std::vector<int> order;
  const double kMax = 0.060;  // == EventQueue's kWheelMaxDelay
  q.schedule(kMax, [&order] { order.push_back(1); });  // heap (excluded)
  q.schedule(std::nextafter(kMax, 0.0),
             [&order] { order.push_back(0); });        // wheel (just below)
  q.schedule(kMax, [&order] { order.push_back(2); });  // heap, tie with 1
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// A handler at the front bucket's drain point schedules an event at the
// current time: the timestamp maps into the bucket's already-popped
// [0, head) range, so it must route elsewhere (zero delay -> heap) and
// still run after the bucket's remaining same-time entries (older
// schedule seq wins the tie) — never be lost or run early.
TEST(EventQueueEdge, ScheduleDuringStepAtDrainedFrontBucketTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.010, [&order, &q] {
    order.push_back(0);
    q.schedule(q.now(), [&order] { order.push_back(2); });
  });
  q.schedule(0.010, [&order] { order.push_back(1); });
  q.schedule(0.011, [&order] { order.push_back(3); });
  EXPECT_EQ(q.run_all(), 4);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Delays near the top of the window scheduled from a nonzero clock wrap
// the 32-bucket ring to an index below the current bucket; in-bucket
// order after the wrap must still be by (time, seq).
TEST(EventQueueEdge, WheelWrapAroundKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.031, [&order, &q] {
    order.push_back(0);
    q.schedule(q.now() + 0.0599, [&order] { order.push_back(2); });
    q.schedule(q.now() + 0.0598, [&order] { order.push_back(1); });
    q.schedule(q.now() + 0.070, [&order] { order.push_back(3); });  // heap
  });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// -- run_before: the sharded engine's window primitive -------------------

TEST(EventQueueRunBefore, ExcludesEventsExactlyAtTheBound) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&fired] { ++fired; });
  q.schedule(2.0, [&fired] { ++fired; });
  // run_until(2.0) would fire both; the window [*, 2.0) takes only the
  // first — an event on the edge belongs to the next window.
  EXPECT_EQ(q.run_before(2.0), 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_before(std::nextafter(2.0, 3.0)), 1);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueRunBefore, AdvancesClockEvenWithoutEvents) {
  EventQueue q;
  EXPECT_EQ(q.run_before(5.0), 0);
  EXPECT_EQ(q.now(), 5.0);  // idle shards still land on the window edge
  q.schedule(10.0, [] {});
  EXPECT_EQ(q.run_before(7.0), 0);
  EXPECT_EQ(q.now(), 7.0);
  EXPECT_EQ(q.run_before(3.0), 0);  // never rewinds
  EXPECT_EQ(q.now(), 7.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueRunBefore, DrainsEverySourceStrictlyBelowBound) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.010, [&order] { order.push_back(0); });  // wheel
  q.schedule_after_fixed(0.25, [&order] { order.push_back(1); });  // lane
  q.schedule(0.25, [&order] { order.push_back(2); });  // heap, tie with 1
  EXPECT_EQ(q.run_before(0.25), 1);  // the 0.25 pair sits on the edge
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(q.run_before(1.0), 2);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(q.empty());
}

// -- Lane-table admission (the kMaxLanes cap) ----------------------------
//
// schedule_after_fixed exists for a small set of protocol constants; a
// caller leaking computed delays into it must not grow the lane table
// (and with it the per-event min scan) without bound. Past kMaxLanes the
// queue admits unseen delays through the wheel/heap with the same
// (time, seq) key, so only the container changes — never the pop order.

TEST(EventQueueAdmission, LaneTableStopsGrowingAtTheCap) {
  EventQueue q;
  int fired = 0;
  const std::size_t kDistinct = EventQueue::kMaxLanes + 8;
  for (std::size_t i = 0; i < kDistinct; ++i) {
    q.schedule_after_fixed(0.1 + 0.001 * static_cast<double>(i),
                           [&fired] { ++fired; });
  }
  EXPECT_EQ(q.lane_table_size(), EventQueue::kMaxLanes);
  EXPECT_EQ(q.run_all(), static_cast<std::int64_t>(kDistinct));
  EXPECT_EQ(fired, static_cast<int>(kDistinct));
}

TEST(EventQueueAdmission, OverflowDelaysKeepTheTotalOrder) {
  // Interleave laned, overflowed, and schedule()d events with tying and
  // distinct timestamps; the executed sequence must equal the (time,
  // submission) sort regardless of which container held each entry.
  EventQueue q;
  std::vector<int> order;
  int next = 0;
  // Fill the lane table with distinct constants.
  for (std::size_t i = 0; i < EventQueue::kMaxLanes; ++i) {
    q.schedule_after_fixed(1.0 + 0.01 * static_cast<double>(i),
                           [&order, id = next++] { order.push_back(id); });
  }
  // Overflow: three unseen delays, one tying an existing lane's time.
  q.schedule_after_fixed(0.5,
                         [&order, id = next++] { order.push_back(id); });
  q.schedule_after_fixed(1.0,  // same expiry as the first lane, later seq
                         [&order, id = next++] { order.push_back(id); });
  q.schedule_after_fixed(2.0,
                         [&order, id = next++] { order.push_back(id); });
  EXPECT_EQ(q.lane_table_size(), EventQueue::kMaxLanes);
  // A wheel-range event and a far-future heap event for good measure.
  q.schedule(0.010, [&order, id = next++] { order.push_back(id); });
  q.schedule(3.0, [&order, id = next++] { order.push_back(id); });
  EXPECT_EQ(q.run_all(), static_cast<std::int64_t>(next));
  // Expected: 0.010s wheel event, 0.5s overflow, the sixteen lanes in
  // delay order (1.00..1.15) with the 1.0s overflow firing right after
  // the 1.00 lane entry (same time, later submission), then 2.0s, 3.0s.
  std::vector<int> expected;
  expected.push_back(static_cast<int>(EventQueue::kMaxLanes) + 3);  // wheel
  expected.push_back(static_cast<int>(EventQueue::kMaxLanes));      // 0.5
  expected.push_back(0);                                            // 1.00
  expected.push_back(static_cast<int>(EventQueue::kMaxLanes) + 1);  // tie
  for (int i = 1; i < static_cast<int>(EventQueue::kMaxLanes); ++i) {
    expected.push_back(i);
  }
  expected.push_back(static_cast<int>(EventQueue::kMaxLanes) + 2);  // 2.0
  expected.push_back(static_cast<int>(EventQueue::kMaxLanes) + 4);  // 3.0
  EXPECT_EQ(order, expected);
}

TEST(EventQueueAdmission, ReusedConstantStillLanesAfterOverflow) {
  // A delay that already owns a lane keeps using it even when the table
  // is full — the cap only rejects *new* lanes.
  EventQueue q;
  int fired = 0;
  for (std::size_t i = 0; i < EventQueue::kMaxLanes + 4; ++i) {
    q.schedule_after_fixed(0.1 + 0.001 * static_cast<double>(i),
                           [&fired] { ++fired; });
  }
  const std::size_t lanes = q.lane_table_size();
  q.schedule_after_fixed(0.1, [&fired] { ++fired; });  // lane 0 again
  EXPECT_EQ(q.lane_table_size(), lanes);
  EXPECT_EQ(q.run_all(),
            static_cast<std::int64_t>(EventQueue::kMaxLanes + 5));
  EXPECT_EQ(fired, static_cast<int>(EventQueue::kMaxLanes + 5));
}

// -- Releasing lane timers ------------------------------------------------
//
// release() frees a pending schedule_after_fixed() handler at once; the
// 16-byte key stays and pops at its time as a counted no-op. A queue that
// releases must be indistinguishable, by everything but the handler that
// never runs, from a twin whose same timers fire into no-op handlers.

TEST(EventQueueRelease, ReleasedTimerPopsAsACountedNoOp) {
  EventQueue released;
  EventQueue twin;
  std::vector<int> order_released;
  std::vector<int> order_twin;
  std::vector<LaneTimer> handles;
  util::Rng rng(2024);
  const double delays[] = {0.05, 0.25, 0.01};
  int next = 0;
  // Lanes, wheel and heap entries interleaved; every third lane timer is
  // released in one queue and fires into a no-op in the other.
  for (int round = 0; round < 40; ++round) {
    const double delay = delays[rng.bounded(3)];
    const int id = next++;
    const bool release = id % 3 == 0;
    handles.push_back(released.schedule_after_fixed(
        delay, [&order_released, id] { order_released.push_back(id); }));
    if (release) {
      twin.schedule_after_fixed(delay, [] {});
    } else {
      twin.schedule_after_fixed(
          delay, [&order_twin, id] { order_twin.push_back(id); });
    }
    const double at = released.now() + 0.004 + 0.5 * rng.uniform01();
    const int other = next++;
    released.schedule(
        at, [&order_released, other] { order_released.push_back(other); });
    twin.schedule(at, [&order_twin, other] { order_twin.push_back(other); });
    if (release) released.release(handles.back());
    const double bound = released.now() + 0.02;
    ASSERT_EQ(released.size(), twin.size());
    ASSERT_EQ(released.run_before(bound), twin.run_before(bound));
    ASSERT_EQ(released.last_fired(), twin.last_fired());
    ASSERT_EQ(released.size(), twin.size());
  }
  EXPECT_EQ(released.next_time(), twin.next_time());
  EXPECT_EQ(released.run_all(), twin.run_all());
  EXPECT_EQ(released.last_fired(), twin.last_fired());
  EXPECT_EQ(released.now(), twin.now());
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(order_released, order_twin);
  EXPECT_EQ(order_released.size(), order_twin.size());
  EXPECT_EQ(std::count_if(order_released.begin(), order_released.end(),
                          [](int id) { return id % 6 == 0; }),
            0);  // no released handler ran
}

TEST(EventQueueRelease, DestroysTheCapturesAtRelease) {
  EventQueue q;
  auto state = std::make_shared<int>(7);
  int ran = 0;
  const LaneTimer t =
      q.schedule_after_fixed(0.25, [state, &ran] { ran += *state; });
  ASSERT_TRUE(t);
  EXPECT_EQ(state.use_count(), 2);
  q.release(t);
  EXPECT_EQ(state.use_count(), 1);  // gone now, not at 0.25
  EXPECT_EQ(q.size(), 1u);          // the key still waits for its time
  EXPECT_EQ(q.next_time(), 0.25);
  EXPECT_EQ(q.run_all(), 1);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(q.last_fired(), 0.25);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueRelease, SecondReleaseAndReleaseAfterFiringAreNoOps) {
  EventQueue q;
  int fired = 0;
  const LaneTimer first = q.schedule_after_fixed(0.1, [&fired] { ++fired; });
  q.release(first);
  q.release(first);  // twice
  EXPECT_EQ(q.run_all(), 1);
  EXPECT_EQ(fired, 0);

  // A timer that already fired: its arena slot now serves a newer timer
  // of the same lane, which a stale release must not touch.
  const LaneTimer fired_timer =
      q.schedule_after_fixed(0.1, [&fired] { ++fired; });
  EXPECT_EQ(q.run_all(), 1);
  EXPECT_EQ(fired, 1);
  const LaneTimer live = q.schedule_after_fixed(0.1, [&fired] { ++fired; });
  q.release(fired_timer);
  q.release(LaneTimer{});  // an empty handle names nothing
  EXPECT_EQ(q.run_all(), 1);
  EXPECT_EQ(fired, 2);
  (void)live;
}

TEST(EventQueueRelease, OverflowAdmissionsHaveNoHandle) {
  EventQueue q;
  for (std::size_t i = 0; i < EventQueue::kMaxLanes; ++i) {
    EXPECT_TRUE(q.schedule_after_fixed(0.1 + 0.001 * static_cast<double>(i),
                                       [] {}));
  }
  int fired = 0;
  const LaneTimer overflow =
      q.schedule_after_fixed(0.5, [&fired] { ++fired; });
  EXPECT_FALSE(overflow);
  q.release(overflow);
  EXPECT_EQ(q.run_all(),
            static_cast<std::int64_t>(EventQueue::kMaxLanes + 1));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueRelease, ReleaseAfterRenumberIsANoOp) {
  // renumber() folds lane keys into the heap. A handle taken before the
  // fold must not reach the lane entries pushed after it, and a key that
  // was released before the fold still pops as a no-op from the heap.
  EventQueue q;
  std::vector<int> order;
  const LaneTimer kept =
      q.schedule_after_fixed(0.2, [&order] { order.push_back(0); });
  const LaneTimer dropped =
      q.schedule_after_fixed(0.2, [&order] { order.push_back(1); });
  q.release(dropped);
  EventQueueTestAccess::wrap_next_schedule(q);
  q.schedule(0.1, [&order] { order.push_back(2); });  // renumbers
  const LaneTimer after =
      q.schedule_after_fixed(0.2, [&order] { order.push_back(3); });
  const LaneTimer after2 =
      q.schedule_after_fixed(0.2, [&order] { order.push_back(4); });
  q.release(kept);     // folded into the heap: no-op
  q.release(dropped);  // folded and released: no-op
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.run_all(), 5);
  EXPECT_EQ(order, (std::vector<int>{2, 0, 3, 4}));
  (void)after;
  (void)after2;
}

TEST(EventQueueOrder, RenumberKeepsTheTotalOrder) {
  // The 2^32 seq wrap compacts every queued seq; ties keep firing in
  // submission order across lanes, wheel and heap.
  EventQueue q;
  std::vector<int> order;
  q.schedule_after_fixed(0.01, [&order] { order.push_back(0); });
  q.schedule(0.01, [&order] { order.push_back(1); });
  q.schedule(5.0, [&order] { order.push_back(2); });
  EventQueueTestAccess::wrap_next_schedule(q);
  q.schedule_after_fixed(0.01, [&order] { order.push_back(3); });
  q.schedule(0.01, [&order] { order.push_back(4); });
  EXPECT_EQ(q.run_all(), 5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 2}));
}

TEST(EventQueueOrder, RunAllDrainsEverySource) {
  EventQueue q;
  int fired = 0;
  q.schedule(0.010, [&fired] { ++fired; });            // wheel
  q.schedule(3.0, [&fired] { ++fired; });              // heap
  q.schedule_after_fixed(0.25, [&fired, &q] {          // lane
    ++fired;
    q.schedule(q.now() + 0.020, [&fired] { ++fired; });
  });
  EXPECT_EQ(q.run_all(), 4);
  EXPECT_EQ(fired, 4);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace lesslog::sim
