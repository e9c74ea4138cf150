// Eager coroutine task type for simulated threads.
//
// `Task<T>` is the return type of simulated code that runs more than one
// step: a barrier wait, a lock passage, a store or LL/SC, a whole
// benchmark thread. Tasks start eagerly — the body runs up to its first
// real suspension inside the creation call — and resume their awaiter
// when they finish. Since simulated code always awaits a task immediately
// (or hands it straight to `detach()`), this is indistinguishable from
// lazy start, but lets a task that never suspends complete without ever
// suspending its parent.
//
// The leaf operations on the barrier path are not tasks: a load
// (`CacheCtrl::LoadAwaiter`), an AMO, MAO or uncached load
// (`Core::AmoAwaiter`) and compute time (`Engine::DelayAwaiter`) are
// frameless awaiters that issue when awaited and live in the awaiting
// frame, so an L1 hit or an AMO allocates nothing. Await them at once.
// Synchronization algorithms read like the paper's pseudocode:
//
//   sim::Task<void> barrier_wait(ThreadCtx& ctx) {
//     const std::uint64_t old = co_await ctx.amo_inc(var, target);
//     for (;;) {
//       const std::uint64_t v = co_await ctx.load(var);
//       if (v == target) break;
//       ...
//     }
//   }
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <functional>
#include <memory>
#include <utility>

#include "sim/frame_pool.hpp"

namespace amo::sim {

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;  // who awaits us (may be null)
  std::exception_ptr exception;

  // Coroutine frames come from the per-thread frame pool, not the heap:
  // these operators are found on the promise type, so every Task<T> frame
  // (and anything derived from this base) is pooled.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }

  // On the synchronous fast path (task completed without suspending, so
  // nobody registered a continuation) this returns straight to the
  // resumer — no indirect transfer at all. With a continuation, resuming
  // it nests on the native stack instead of symmetric transfer; await
  // chains in the simulator are shallow (a handful of frames), and the
  // owning Task may destroy this frame from inside cont.resume(), which
  // is why nothing here touches the promise after that call.
  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    bool await_suspend(std::coroutine_handle<Promise> h) noexcept {
      if (auto cont = h.promise().continuation) cont.resume();
      return true;  // stay suspended; the owning Task destroys the frame
    }
    void await_resume() const noexcept {}
  };

  // Eager start: the body runs (to its first real suspension) inside the
  // ramp, as a direct call the optimizer can see through — awaiting a
  // task that completed synchronously then never suspends the parent.
  // Every task in the tree is either awaited immediately at the call
  // site or returned straight into an awaiting caller, so starting at
  // creation instead of first-await is not an observable reordering.
  std::suspend_never initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task;

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    // Bare union instead of std::optional<T>: the frame stays in the
    // smallest size class, and await_resume can assert on `has_value`
    // without optional's engaged/disengaged bookkeeping in the hot path.
    union {
      T value;  // active iff has_value
    };
    bool has_value = false;

    promise_type() noexcept {}  // NOLINT: `value` starts inactive
    ~promise_type() {
      if (has_value) value.~T();
    }

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) {
      ::new (static_cast<void*>(std::addressof(value))) T(std::move(v));
      has_value = true;
    }
  };

  Task() = default;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return h_ != nullptr; }
  [[nodiscard]] bool done() const { return h_ && h_.done(); }

  // Awaiting a task suspends the awaiter until the (already running)
  // task completes. A task that completed synchronously reports ready
  // and the parent never suspends at all — the hot path for cache hits
  // and arithmetic helpers. Awaiting a moved-from task is a
  // use-after-move bug, caught here before the awaiter dereferences it.
  auto operator co_await() && noexcept {
    assert(h_ && "awaiting an empty (moved-from?) Task");
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return h.done(); }
      void await_suspend(std::coroutine_handle<> awaiting) noexcept {
        // Child is suspended somewhere in its body; its FinalAwaiter will
        // transfer back here when it finishes.
        h.promise().continuation = awaiting;
      }
      T await_resume() {
        auto& p = h.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        assert(p.has_value && "task finished without a value");
        return std::move(p.value);
      }
    };
    return Awaiter{h_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  // std::exchange first: destroying the frame can reenter task teardown
  // (child tasks stored in the frame), and must never see a stale h_.
  void destroy() {
    if (auto h = std::exchange(h_, nullptr)) h.destroy();
  }
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  Task() = default;
  Task(Task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return h_ != nullptr; }
  [[nodiscard]] bool done() const { return h_ && h_.done(); }

  // Same synchronous-completion fast path as Task<T>.
  auto operator co_await() && noexcept {
    assert(h_ && "awaiting an empty (moved-from?) Task");
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return h.done(); }
      void await_suspend(std::coroutine_handle<> awaiting) noexcept {
        h.promise().continuation = awaiting;
      }
      void await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
      }
    };
    return Awaiter{h_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (auto h = std::exchange(h_, nullptr)) h.destroy();
  }
  std::coroutine_handle<promise_type> h_;
};

/// Return type of a self-destroying coroutine: it starts at the call,
/// like a Task, and frees its own frame when its body ends. Nobody can
/// await it, so it hands any result on itself. It roots detach()'s task
/// trees and runs CacheCtrl's load miss path.
struct Detached {
  struct promise_type {
    static void* operator new(std::size_t n) { return FramePool::allocate(n); }
    static void operator delete(void* p, std::size_t n) noexcept {
      FramePool::deallocate(p, n);
    }
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    // A detached simulated thread has nobody to rethrow to; failing loudly
    // beats silently corrupting an experiment.
    void unhandled_exception() { std::terminate(); }
  };
};

namespace detail {

inline Detached detach_impl(Task<void> task, std::function<void()> on_done) {
  co_await std::move(task);
  if (on_done) on_done();
}

}  // namespace detail

/// Launches `task` as a root simulated thread. The task frame is owned by
/// the detached wrapper and destroyed on completion. `on_done` (optional)
/// fires when the task finishes — the Machine uses it to count live threads.
inline void detach(Task<void> task, std::function<void()> on_done = {}) {
  detail::detach_impl(std::move(task), std::move(on_done));
}

}  // namespace amo::sim
