// Simulation engine: event queue + seeded randomness + recurring-process
// helpers. The churn driver and the dynamic examples build on this.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "lesslog/sim/event_queue.hpp"
#include "lesslog/util/rng.hpp"

namespace lesslog::sim {

class Engine {
 public:
  explicit Engine(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] SimTime now() const noexcept { return queue_.now(); }

  // at/after/after_fixed forward the callable itself (not a built
  // EventFn), so raw lambdas take the queue's emplace path: the handler
  // is constructed directly inside its arena slot with no relocates.

  template <typename F>
  void at(SimTime when, F&& fn) {
    queue_.schedule(when, std::forward<F>(fn));
  }

  template <typename F>
  void after(SimTime delay, F&& fn) {
    queue_.schedule(queue_.now() + delay, std::forward<F>(fn));
  }

  /// after() for delays drawn from a small set of fixed constants (the
  /// protocol's retry timeouts): O(1) FIFO-lane scheduling instead of a
  /// heap insertion, with identical execution order. Do not pass computed
  /// delays — every distinct value allocates a lane for the queue's
  /// lifetime. Returns the handle release() takes.
  template <typename F>
  LaneTimer after_fixed(SimTime delay, F&& fn) {
    return queue_.schedule_after_fixed(delay, std::forward<F>(fn));
  }

  /// Frees a pending after_fixed() timer's handler now; its time still
  /// passes as a no-op event (see EventQueue::release).
  void release(LaneTimer timer) { queue_.release(timer); }

  /// Starts a Poisson process with the given rate (events/time-unit): `fn`
  /// fires at exponentially spaced times until `stop_at`. A rate of 0
  /// schedules nothing.
  void poisson_process(double rate, SimTime stop_at,
                       std::function<void()> fn);

  /// Runs until `until`; returns events executed.
  std::int64_t run_until(SimTime until) { return queue_.run_until(until); }

  /// Runs events strictly before `bound`; now() ends at `bound`. The
  /// conservative-window step of the sharded engine (see
  /// EventQueue::run_before).
  std::int64_t run_before(SimTime bound) { return queue_.run_before(bound); }

 private:
  void schedule_next_arrival(double rate, SimTime stop_at,
                             std::shared_ptr<std::function<void()>> fn);

  EventQueue queue_;
  util::Rng rng_;
};

}  // namespace lesslog::sim
