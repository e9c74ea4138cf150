// The discrete-event engine: owns the clock and the event queue, and
// provides the awaitable `delay()` used by simulated-thread coroutines.
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/stats_registry.hpp"
#include "sim/types.hpp"

namespace amo::sim {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Handle to a one-shot timer armed with `schedule_cancelable`. The
  /// ladder queue has no mid-queue removal, so cancellation releases the
  /// callback (and its captures) immediately and leaves a generation-
  /// checked tombstone in the queue: the queued slot still fires at its
  /// original cycle and FIFO position as a no-op, which keeps event
  /// counts and ordering identical whether or not the timer was spent.
  class TimerHandle {
   public:
    TimerHandle() = default;
    /// True while the timer is armed and neither fired nor canceled.
    [[nodiscard]] bool armed() const {
      return engine_ != nullptr && engine_->timer_armed(idx_, gen_);
    }
    /// Releases the callback now; the queued event becomes a tombstone.
    /// No-op if the timer already fired or was already canceled.
    void cancel() {
      if (engine_ != nullptr) {
        engine_->cancel_timer(idx_, gen_);
        engine_ = nullptr;
      }
    }

   private:
    friend class Engine;
    TimerHandle(Engine* e, std::uint32_t idx, std::uint64_t gen)
        : engine_(e), idx_(idx), gen_(gen) {}
    Engine* engine_ = nullptr;
    std::uint32_t idx_ = 0;
    std::uint64_t gen_ = 0;
  };

  /// Schedules `fn` to run `delay` cycles from now, returning a handle
  /// that can cancel it. The callback is parked in a pooled cell (not the
  /// queue slot), so cancel frees it without touching the ladder.
  TimerHandle schedule_cancelable(Cycle delay, EventQueue::Callback fn);

  /// Current simulated time in cycles.
  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedules `fn` to run `delay` cycles from now.
  void schedule(Cycle delay, EventQueue::Callback fn) {
    if (dispatch_hist_ != nullptr) dispatch_hist_->record(delay);
    queue_.push(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `when`. Times in the past are
  /// clamped to now(): the clock never rewinds, and a clamped event keeps
  /// its FIFO position among other events scheduled for the current cycle.
  void schedule_at(Cycle when, EventQueue::Callback fn) {
    if (dispatch_hist_ != nullptr) {
      dispatch_hist_->record(when < now_ ? 0 : when - now_);
    }
    queue_.push(when < now_ ? now_ : when, std::move(fn));
  }

  /// Runs until the event queue drains or `deadline` is passed.
  /// Returns the number of events processed.
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
  /// Cancelable-timer cells ever allocated. The pool recycles cells
  /// through a free list, so this stabilizes at the high-water mark of
  /// concurrently armed timers — growth under a steady workload is a leak.
  [[nodiscard]] std::size_t timer_cells_allocated() const {
    return timer_cells_.size();
  }

  /// Points event-dispatch-delay recording at `h` (cycles between an
  /// event's scheduling and its execution time, one sample per
  /// schedule()/schedule_at()). nullptr (the default) disables recording;
  /// Machine wires its histogram here when stats.histograms is on.
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
  // A parked cancelable-timer callback. `gen` advances whenever the cell
  // is released (fire or cancel), so the queued event — which captures
  // (idx, gen) — detects staleness and fires as a no-op tombstone.
  struct TimerCell {
    EventQueue::Callback fn;
    std::uint64_t gen = 0;
    std::uint32_t next_free = kNoCell;
  };
  static constexpr std::uint32_t kNoCell = 0xffffffffu;

  [[nodiscard]] bool timer_armed(std::uint32_t idx, std::uint64_t gen) const {
    return idx < timer_cells_.size() && timer_cells_[idx].gen == gen;
  }
  void cancel_timer(std::uint32_t idx, std::uint64_t gen) {
    if (timer_armed(idx, gen)) release_timer(idx);
  }
  void release_timer(std::uint32_t idx);

  Cycle now_ = 0;
  std::uint64_t executed_ = 0;
  LogHistogram* dispatch_hist_ = nullptr;  // owned by Machine; may be null
  EventQueue queue_;
  std::vector<TimerCell> timer_cells_;
  std::uint32_t timer_free_ = kNoCell;
};

}  // namespace amo::sim
