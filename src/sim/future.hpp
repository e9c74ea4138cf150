// Single-shot promise/future used to bridge callback-style hardware models
// (caches, directories, the network) into awaitable coroutine code.
//
// The producing side holds a `Promise<T>`; the consuming coroutine does
// `co_await future`. Completion resumes the waiter through the event queue
// (zero-cycle event), never inline, so hardware models are free to complete
// promises while iterating their own state.
//
// Promise and future copies share one pooled state block through
// `PoolShared`: a copy is a non-atomic increment, so every copy stays on
// its engine's thread (FramePool's contract).
#pragma once

#include <cassert>
#include <coroutine>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"

namespace amo::sim {

namespace detail {

template <typename T>
struct FutureState {
  Engine* engine = nullptr;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  // Set by Future::abandon(): the consumer tore down its waiter and will
  // never look at the value. Completion still schedules its zero-cycle
  // event (as a no-op) so event counts don't depend on who won the race.
  bool abandoned = false;
};

}  // namespace detail

template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(PoolShared<detail::FutureState<T>> s)
      : state_(std::move(s)) {}

  [[nodiscard]] bool valid() const { return static_cast<bool>(state_); }
  [[nodiscard]] bool ready() const {
    return state_ && state_->value.has_value();
  }

  bool await_ready() const noexcept {
    assert(state_ && "awaiting an empty Future");
    return state_->value.has_value();
  }
  void await_suspend(std::coroutine_handle<> h) {
    assert(!state_->waiter && "Future supports a single waiter");
    state_->waiter = h;
  }
  T await_resume() {
    assert(state_->value.has_value());
    return std::move(*state_->value);
  }

  /// Deregisters the waiter (if any) and marks the future abandoned: the
  /// suspended consumer may be destroyed safely afterwards, and a later
  /// completion resumes nobody. Timeout paths use this to tear down their
  /// watcher instead of leaking it until the producer eventually fires.
  void abandon() {
    if (!state_) return;
    state_->waiter = nullptr;
    state_->abandoned = true;
  }

 private:
  PoolShared<detail::FutureState<T>> state_;
};

template <typename T>
class Promise {
 public:
  /// An empty promise (no shared state); only useful as a pooled-slot
  /// placeholder to be move-assigned over before use.
  Promise() = default;

  explicit Promise(Engine& engine)
      : state_(PoolShared<detail::FutureState<T>>::make()) {
    state_->engine = &engine;
  }

  [[nodiscard]] Future<T> get_future() const { return Future<T>(state_); }

  /// Completes the future; the waiting coroutine (if any) resumes via a
  /// zero-cycle event. May be called at most once.
  void set_value(T v) const {
    assert(!state_->value.has_value() && "Promise completed twice");
    state_->value.emplace(std::move(v));
    if (state_->waiter || state_->abandoned) {
      // The waiter is re-read at event execution time (the state
      // capture keeps the state alive), so a consumer that abandons the
      // future between completion and resumption is never resumed dead —
      // the event fires as a no-op, keeping its queue slot either way.
      state_->engine->schedule(0, [s = state_] {
        const auto h = s->waiter;
        s->waiter = nullptr;
        if (h) h.resume();
      });
    }
  }

  [[nodiscard]] bool completed() const { return state_->value.has_value(); }

 private:
  PoolShared<detail::FutureState<T>> state_;
};

}  // namespace amo::sim
