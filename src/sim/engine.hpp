// The discrete-event engine: owns the clock and the event queue, and
// provides the awaitable `delay()` used by simulated-thread coroutines.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>

#include "sim/event_queue.hpp"
#include "sim/stats_registry.hpp"
#include "sim/types.hpp"

namespace amo::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in cycles.
  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedules `fn` to run `delay` cycles from now.
  void schedule(Cycle delay, EventQueue::Callback&& fn) {
    if (dispatch_hist_ != nullptr) dispatch_hist_->record(delay);
    queue_.push(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `when`. Times in the past are
  /// clamped to now(): the clock never rewinds, a clamped event keeps its
  /// FIFO position among other events scheduled for the current cycle, and
  /// the queue's precondition (no push before the last popped cycle) holds.
  void schedule_at(Cycle when, EventQueue::Callback&& fn) {
    if (dispatch_hist_ != nullptr) {
      dispatch_hist_->record(when < now_ ? 0 : when - now_);
    }
    queue_.push(when < now_ ? now_ : when, std::move(fn));
  }

  /// Resumes `h` from a zero-cycle event: how a reply wakes the thread
  /// waiting on it, never inline, so the replying model may go on
  /// changing its own state first.
  void wake(std::coroutine_handle<> h) {
    schedule(0, [h] { h.resume(); });
  }

  /// Runs until the event queue drains or `deadline` is passed, each
  /// callback in its queue slot. Returns the number of events processed.
  /// A callback that throws is retired (counted out of the queue) and the
  /// exception propagates; the next run() picks up at the next event.
  std::uint64_t run(Cycle deadline = std::numeric_limits<Cycle>::max());

  /// Processes a single event, if any. Returns false if the queue is empty.
  bool step();

  /// True when no events are pending.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Total events ever scheduled (throughput metric).
  [[nodiscard]] std::uint64_t events_scheduled() const {
    return queue_.total_pushed();
  }
  /// Total events executed by run()/step().
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  // ---------------------------------------- leak introspection (tests)
  /// Events currently pending in the ladder queue.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  /// Points event-dispatch-delay recording at `h` (cycles between an
  /// event's scheduling and its execution time, one sample per
  /// schedule()/schedule_at()). nullptr (the default) disables recording;
  /// Machine wires its registry's histogram here.
  void set_dispatch_hist(LogHistogram* h) { dispatch_hist_ = h; }

  /// Awaitable that suspends the calling coroutine for `cycles`.
  struct DelayAwaiter {
    Engine& engine;
    Cycle cycles;
    // Even zero-cycle delays go through the queue so that same-cycle
    // work interleaves in deterministic FIFO order.
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      engine.schedule(cycles, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };

  /// `co_await engine.delay(n)` — advance this context by n cycles.
  [[nodiscard]] DelayAwaiter delay(Cycle cycles) {
    return DelayAwaiter{*this, cycles};
  }

 private:
  /// Runs the earliest event in its queue slot, at its cycle.
  void dispatch_one();

  Cycle now_ = 0;
  std::uint64_t executed_ = 0;
  LogHistogram* dispatch_hist_ = nullptr;  // owned by the registry; may be null
  EventQueue queue_;
};

}  // namespace amo::sim
