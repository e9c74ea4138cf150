// InlineFn: a small-buffer-optimized, move-only replacement for
// std::function<void()> on the event-queue hot path.
//
// Every simulated event — a coroutine resume, a network hop, a DRAM
// completion — is a small capture (a coroutine handle, a couple of
// pointers). std::function heap-allocates many of these and drags in
// copyability requirements; InlineFn stores any nothrow-movable callable
// of up to kInlineBytes directly in the event-queue slot and only falls
// back to the heap for oversized or throwing-move captures.
//
// An event's closure is built into an InlineFn once, at the schedule
// call, and moved once, into its queue slot: Engine::schedule, the
// event queue, Wiring::post and Network::send all take callbacks by
// rvalue reference, and the engine runs each callback in its slot. An
// InlineFn is 56 bytes and 8-byte aligned, so a slot (cycle + callback)
// fills one 64-byte host cache line.
//
// InlineFnT<Args...> generalizes the same storage scheme to callbacks
// that take arguments (multicast delivery takes a NodeId, AMO replies
// take the old word value); InlineFn is the nullary alias the event
// queue uses.
//
// The oversized fallback boxes the callable through FramePool, not the
// global allocator, so the rare big closures (directory handlers that
// carry a whole line, word-update waves with a sharer snapshot) stay
// allocation-free in steady state too. AMO requests are not boxed: the
// request event captures a pointer to the issuing Core::AmoAwaiter, and
// the request is built from it at the home.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/frame_pool.hpp"

namespace amo::sim {

template <typename... Args>
class InlineFnT {
 public:
  /// Inline storage size. 48 bytes holds the biggest hot-path captures
  /// (Engine::DelayAwaiter resumes, network deliver closures: a handle
  /// plus a few pointers/integers) with room to spare; anything larger is
  /// a cold-path construction and may heap-allocate.
  static constexpr std::size_t kInlineBytes = 48;
  /// Inline storage alignment: pointers, handles and integers. A closure
  /// needing more takes the boxed fallback.
  static constexpr std::size_t kInlineAlign = 8;

  InlineFnT() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineFnT> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&,
                                      Args...>>>
  InlineFnT(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                      // std::function at every schedule() call site
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      // Moves copy all kInlineBytes; zero the bytes the closure leaves
      // unwritten (its tail, or its padding) so no move reads them.
      if constexpr (!std::has_unique_object_representations_v<Fn>) {
        __builtin_memset(buf_, 0, kInlineBytes);
      } else if constexpr (sizeof(Fn) < kInlineBytes) {
        __builtin_memset(buf_ + sizeof(Fn), 0, kInlineBytes - sizeof(Fn));
      }
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      void* box = FramePool::allocate(sizeof(Fn));
      try {
        ::new (box) Fn(std::forward<F>(f));
      } catch (...) {
        FramePool::deallocate(box, sizeof(Fn));
        throw;
      }
      __builtin_memset(buf_ + sizeof(Fn*), 0, kInlineBytes - sizeof(Fn*));
      ::new (static_cast<void*>(buf_)) Fn*(static_cast<Fn*>(box));
      ops_ = &kHeapOps<Fn>;
    }
  }

  // A move relocates an event into its queue slot (and again when a span
  // distributes into buckets). Most captures are trivially
  // copyable (handles, pointers, ints); for those — and for the heap
  // fallback, which only relocates a pointer — `relocate` is null and a
  // branch-predictable fixed-size copy of the buffer suffices.
  InlineFnT(InlineFnT&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, o.buf_);
      } else {
        __builtin_memcpy(buf_, o.buf_, kInlineBytes);
      }
      o.ops_ = nullptr;
    }
  }

  InlineFnT& operator=(InlineFnT&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        if (ops_->relocate != nullptr) {
          ops_->relocate(buf_, o.buf_);
        } else {
          __builtin_memcpy(buf_, o.buf_, kInlineBytes);
        }
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFnT(const InlineFnT&) = delete;
  InlineFnT& operator=(const InlineFnT&) = delete;

  ~InlineFnT() { reset(); }

  void operator()(Args... args) {
    ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// True when the held callable lives in the inline buffer (no heap).
  /// Exposed so tests can pin down the SBO boundary.
  [[nodiscard]] bool is_inline() const noexcept {
    return ops_ != nullptr && ops_->heap_held == false;
  }

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage, Args... args);
    // Move-construct into `dst` from `src`, then destroy the source; null
    // when a raw copy of the inline buffer does the same thing.
    void (*relocate)(void* dst, void* src) noexcept;
    // Destroy the held callable; null when destruction is a no-op.
    void (*destroy)(void* storage) noexcept;
    bool heap_held;
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s, Args... args) {
        (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(args)...);
      },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              Fn* from = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*from));
              from->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* s) noexcept {
              std::launder(reinterpret_cast<Fn*>(s))->~Fn();
            },
      /*heap_held=*/false,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s, Args... args) {
        (**std::launder(reinterpret_cast<Fn**>(s)))(
            std::forward<Args>(args)...);
      },
      nullptr,  // relocating the owning pointer is a raw copy
      [](void* s) noexcept {
        Fn* p = *std::launder(reinterpret_cast<Fn**>(s));
        p->~Fn();
        FramePool::deallocate(p, sizeof(Fn));
      },
      /*heap_held=*/true,
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

static_assert(sizeof(InlineFnT<>) == 56);

using InlineFn = InlineFnT<>;

}  // namespace amo::sim
