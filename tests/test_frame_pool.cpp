// FramePool unit tests: size-class rounding, LIFO block reuse (including
// across *distinct* coroutine promise types that share a size class),
// slab growth under exhaustion, tolerance of arbitrary destroy order,
// and PoolShared's single free across copies.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/task.hpp"

namespace amo::sim {
namespace {

using frame_pool_detail::kGranularity;
using frame_pool_detail::kMaxPooled;
using frame_pool_detail::slabs_held;

TEST(FramePool, ClassBytesRoundsUpToGranularity) {
  EXPECT_EQ(FramePool::class_bytes(1), kGranularity);
  EXPECT_EQ(FramePool::class_bytes(kGranularity), kGranularity);
  EXPECT_EQ(FramePool::class_bytes(kGranularity + 1), 2 * kGranularity);
  EXPECT_EQ(FramePool::class_bytes(kMaxPooled), kMaxPooled);
  // Oversized requests are unpooled (class_bytes reports 0).
  EXPECT_EQ(FramePool::class_bytes(kMaxPooled + 1), 0u);
}

TEST(FramePool, SameClassReusesLifo) {
  // Two request sizes in the same class share blocks; the free list is
  // LIFO, so a free followed by a same-class allocate returns the block.
  void* a = FramePool::allocate(100);
  FramePool::deallocate(a, 100);
  void* b = FramePool::allocate(80);  // class_bytes(80) == class_bytes(100)
  EXPECT_EQ(FramePool::class_bytes(80), FramePool::class_bytes(100));
  EXPECT_EQ(b, a);
  FramePool::deallocate(b, 80);
}

TEST(FramePool, DistinctClassesDoNotShareBlocks) {
  void* a = FramePool::allocate(kGranularity);
  FramePool::deallocate(a, kGranularity);
  void* b = FramePool::allocate(3 * kGranularity);
  EXPECT_NE(b, a);
  FramePool::deallocate(b, 3 * kGranularity);
}

TEST(FramePool, OversizedFallsThroughToHeap) {
  // Must not crash or land in a pooled list.
  void* p = FramePool::allocate(kMaxPooled + 1);
  ASSERT_NE(p, nullptr);
  FramePool::deallocate(p, kMaxPooled + 1);
}

TEST(FramePool, ExhaustionGrowsByWholeSlabs) {
  // Drain one class far past a single slab's capacity without freeing:
  // the pool must keep producing distinct blocks, acquiring more slabs.
  constexpr std::size_t kBlocks = 3000;  // > 64 KiB / 64 B per slab
  const std::size_t before = slabs_held();
  std::vector<void*> blocks;
  std::set<void*> unique;
  blocks.reserve(kBlocks);
  for (std::size_t i = 0; i < kBlocks; ++i) {
    void* p = FramePool::allocate(kGranularity);
    blocks.push_back(p);
    unique.insert(p);
  }
  EXPECT_EQ(unique.size(), kBlocks);
  EXPECT_GT(slabs_held(), before);
  const std::size_t grown = slabs_held();
  for (void* p : blocks) FramePool::deallocate(p, kGranularity);
  // Freed blocks return to the class list, not the slab pool; the next
  // burst of the same size reuses them without growing further.
  for (std::size_t i = 0; i < kBlocks; ++i) {
    blocks[i] = FramePool::allocate(kGranularity);
    EXPECT_EQ(unique.count(blocks[i]), 1u);
  }
  EXPECT_EQ(slabs_held(), grown);
  for (void* p : blocks) FramePool::deallocate(p, kGranularity);
}

TEST(FramePool, InterleavedDestroyOrderRecycles) {
  void* a = FramePool::allocate(128);
  void* b = FramePool::allocate(128);
  void* c = FramePool::allocate(128);
  const std::set<void*> freed = {a, b, c};
  // Free in an order unrelated to allocation order.
  FramePool::deallocate(b, 128);
  FramePool::deallocate(a, 128);
  FramePool::deallocate(c, 128);
  for (int i = 0; i < 3; ++i) {
    void* p = FramePool::allocate(128);
    EXPECT_EQ(freed.count(p), 1u) << "reallocation must reuse freed blocks";
  }
  for (void* p : freed) FramePool::deallocate(p, 128);
}

// Two structurally different coroutine types whose frames land in the
// pool. Their frame sizes need not match, but repeated create/destroy
// cycles across both must reach a steady state where no new slabs (and
// no heap blocks) are acquired — pooled capacity is shared per class,
// not per type.
Task<std::uint64_t> leaf_sum(std::uint64_t a, std::uint64_t b) {
  co_return a + b;
}

struct Wide {
  std::uint64_t words[8] = {};
};

Task<Wide> leaf_wide(std::uint64_t seed) {
  Wide w;
  for (std::uint64_t i = 0; i < 8; ++i) w.words[i] = seed + i;
  co_return w;
}

Task<std::uint64_t> caller_mixed(std::uint64_t x) {
  const std::uint64_t s = co_await leaf_sum(x, 1);
  const Wide w = co_await leaf_wide(s);
  co_return w.words[7];
}

Task<void> drive(std::uint64_t i, std::uint64_t* sink) {
  *sink += co_await caller_mixed(i);
}

TEST(FramePool, DistinctTaskTypesShareSteadyStatePool) {
  std::uint64_t sink = 0;
  // Warmup: fault in slabs for every frame class this mix touches. Each
  // detach() runs the whole (eager, never-suspending) tree to completion
  // and frees every frame before returning.
  for (std::uint64_t i = 0; i < 64; ++i) detach(drive(i, &sink));
  const std::size_t slabs = slabs_held();
  for (std::uint64_t i = 0; i < 4096; ++i) detach(drive(i, &sink));
  EXPECT_EQ(slabs_held(), slabs)
      << "steady-state frame churn must not acquire new slabs";
  EXPECT_NE(sink, 0u);
}

// Counts destructions of a live (not moved-from) value.
struct FreeCounter {
  explicit FreeCounter(int* frees) : frees_(frees) {}
  FreeCounter(FreeCounter&& o) noexcept
      : frees_(std::exchange(o.frees_, nullptr)) {}
  FreeCounter& operator=(FreeCounter&&) = delete;
  ~FreeCounter() {
    if (frees_ != nullptr) ++*frees_;
  }
  int* frees_;
};

// Copies share one pooled block through a non-atomic count (a multicast
// wave's deliver closure rides on it): the value goes exactly once, with
// the last copy, whatever order copies, moves and assignments drop it in.
TEST(PoolShared, StateFreedOnceAcrossCopies) {
  for (bool last_is_copy : {false, true}) {
    int frees = 0;
    {
      std::optional<PoolShared<FreeCounter>> a;
      a.emplace(PoolShared<FreeCounter>::make(&frees));
      PoolShared<FreeCounter> b = *a;
      PoolShared<FreeCounter> c;
      c = b;
      PoolShared<FreeCounter> d = std::move(b);
      EXPECT_FALSE(b);
      a.reset();
      EXPECT_EQ(frees, 0) << "value freed while copies remain";
      if (last_is_copy) {
        d = PoolShared<FreeCounter>{};
      } else {
        c = PoolShared<FreeCounter>{};
      }
      EXPECT_EQ(frees, 0) << "one copy still holds the value";
      EXPECT_EQ((last_is_copy ? c : d)->frees_, &frees);
    }
    EXPECT_EQ(frees, 1) << "last_is_copy=" << last_is_copy;
  }
}

}  // namespace
}  // namespace amo::sim
