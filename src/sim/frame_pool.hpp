// Size-class pooled storage for coroutine frames and shared closures.
//
// Simulated threads are coroutines: a barrier wait awaits a lock or a
// store, which awaits its line, each multi-step op with its own frame
// (leaf ops are frameless awaiters in their caller's frame). Routing
// those frames through `operator new` made the allocator the hottest
// function in barrier sweeps. FramePool hands out blocks from per-thread
// size-class free lists carved out of 64 KiB slabs; a steady-state
// workload recycles the same few frames per context with no heap traffic
// at all.
//
// `PoolShared<T>` puts a refcounted object in the same pool; a word-update
// wave's deliver closure is shared by its destinations through it.
//
// Threading: allocate and deallocate must happen on the same thread (the
// lists are thread-local). That matches the simulator's execution model —
// an Engine and everything scheduled on it is confined to one sweep
// worker. Slab *capacity* is recycled process-wide (like the event
// queue's chunk slabs): when a worker thread exits, its slabs return to a
// shared pool for the next worker, so back-to-back sweep cells do not
// re-fault fresh pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace amo::sim {

namespace frame_pool_detail {

inline constexpr std::size_t kGranularity = 64;
inline constexpr std::size_t kClasses = 32;
/// Largest pooled request: 2 KiB. Covers every coroutine frame in the
/// tree, plus the biggest boxed InlineFn closures
/// (directory word-path lambdas capturing a full LineBuf sit near 1.3
/// KiB); anything larger is a cold-path construction and falls through
/// to the global allocator.
inline constexpr std::size_t kMaxPooled = kGranularity * kClasses;

struct FreeBlock {
  FreeBlock* next;
};

// Per-thread free-list heads. Constant-initialized PODs: access compiles
// to a raw TLS load, with no init-guard branch on the hot path.
inline thread_local FreeBlock* t_free[kClasses]{};

/// Carves a new run of `cls`-sized blocks from a (possibly recycled)
/// slab, seeds the free list, and returns one block.
void* refill_and_allocate(std::size_t cls);

/// Number of slabs currently held by this thread (tests/introspection).
std::size_t slabs_held();

}  // namespace frame_pool_detail

/// Static facade over the thread-local size-class lists.
struct FramePool {
  static void* allocate(std::size_t n) {
    using namespace frame_pool_detail;
    if (n - 1 >= kMaxPooled) return ::operator new(n);  // n==0 wraps: pooled
    const std::size_t cls = (n - 1) / kGranularity;
    FreeBlock* b = t_free[cls];
    if (b != nullptr) {
      t_free[cls] = b->next;
      return b;
    }
    return refill_and_allocate(cls);
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    using namespace frame_pool_detail;
    if (n - 1 >= kMaxPooled) {
      ::operator delete(p);
      return;
    }
    auto* b = static_cast<FreeBlock*>(p);
    b->next = t_free[(n - 1) / kGranularity];
    t_free[(n - 1) / kGranularity] = b;
  }

  /// Size class ceiling for an allocation of `n` bytes (what a reused
  /// block's request size must round to). Exposed for the pool tests.
  static constexpr std::size_t class_bytes(std::size_t n) {
    using namespace frame_pool_detail;
    if (n - 1 >= kMaxPooled) return 0;  // unpooled
    return ((n - 1) / kGranularity + 1) * kGranularity;
  }
};

/// Shared ownership of one pooled `T` with an intrusive, non-atomic
/// reference count: the deliver closure of a word-update wave. A copy is
/// a plain increment, where `std::shared_ptr` pays a lock-prefixed one.
/// Every copy must stay on the thread that made the object: FramePool's
/// same-thread contract, which one engine per thread already meets.
template <typename T>
class PoolShared {
 public:
  PoolShared() noexcept = default;
  PoolShared(const PoolShared& o) noexcept : box_(o.box_) {
    if (box_ != nullptr) ++box_->refs;
  }
  PoolShared(PoolShared&& o) noexcept : box_(o.box_) { o.box_ = nullptr; }
  PoolShared& operator=(PoolShared o) noexcept {
    std::swap(box_, o.box_);
    return *this;
  }
  ~PoolShared() {
    if (box_ != nullptr && --box_->refs == 0) {
      box_->~Box();
      FramePool::deallocate(box_, sizeof(Box));
    }
  }

  /// Builds a `T` from `args` in one pooled block, count 1.
  template <typename... A>
  [[nodiscard]] static PoolShared make(A&&... args) {
    void* mem = FramePool::allocate(sizeof(Box));
    PoolShared out;
    try {
      out.box_ = ::new (mem) Box{T(std::forward<A>(args)...), 1};
    } catch (...) {
      FramePool::deallocate(mem, sizeof(Box));
      throw;
    }
    return out;
  }

  [[nodiscard]] T& operator*() const noexcept { return box_->value; }
  [[nodiscard]] T* operator->() const noexcept { return &box_->value; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return box_ != nullptr;
  }

 private:
  struct Box {
    T value;
    std::uint32_t refs;
  };
  Box* box_ = nullptr;
};

/// Minimal allocator adapter so standard containers draw from the frame
/// pool. Stateless; see FramePool's same-thread contract.
template <typename T>
struct FramePoolAllocator {
  using value_type = T;

  FramePoolAllocator() noexcept = default;
  template <typename U>
  FramePoolAllocator(const FramePoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(FramePool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const FramePoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace amo::sim
