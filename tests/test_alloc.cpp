// Allocation-count properties of the hot message path.
//
// This binary overrides the global allocation functions with counting
// wrappers, so it lives apart from the functional suites: every test here
// measures a *delta* of global new calls across a scoped region, after a
// warmup round has faulted in pooled storage (event-queue chunk slabs,
// which hold spans as well as buckets, and link-state arrays).
//
// The property under test is the PR's core claim: a unicast send whose
// delivery closure fits the sim::InlineFn inline buffer (48 bytes) performs
// ZERO heap allocations from injection through delivery — the closure moves
// from the packet into the event-queue slot, and routing walks the tree
// without materializing a path vector.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/machine.hpp"
#include "mem/cache.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sync/barrier.hpp"
#include "sync/spin.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

// Every replaced operator new pairs with a std::free below, so both go
// through malloc-family helpers rather than one operator calling another.
void* counted_alloc(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t a) {
  ++g_news;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(a), n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace amo::net {
namespace {

constexpr int kRounds = 256;

void SendRound(sim::Engine& e, Network& n, std::uint64_t* delivered) {
  for (int i = 0; i < kRounds; ++i) {
    n.send(Packet{0, static_cast<sim::NodeId>(1 + i % 3), MsgClass::kRequest,
                  32, [delivered] { ++*delivered; }});
    e.run();
  }
}

TEST(AllocCount, UnicastSendPathIsAllocationFree) {
  sim::Engine e;
  NetConfig cfg;
  cfg.num_nodes = 8;
  Network n(e, cfg);
  std::uint64_t delivered = 0;
  // Warmup: faults in event-queue chunk slabs and any lazily grown pools.
  SendRound(e, n, &delivered);
  const std::uint64_t before = g_news.load();
  SendRound(e, n, &delivered);
  const std::uint64_t after = g_news.load();
  EXPECT_EQ(after - before, 0u)
      << "unicast send with an inline-sized closure must not allocate";
  EXPECT_EQ(delivered, 2u * kRounds);
}

TEST(AllocCount, OversizedClosureBoxIsPooled) {
  sim::Engine e;
  NetConfig cfg;
  cfg.num_nodes = 4;
  Network n(e, cfg);
  std::uint64_t sink = 0;
  std::array<std::uint64_t, 16> big{};  // 128B capture: boxed fallback
  auto send_big = [&] {
    n.send(Packet{0, 1, MsgClass::kRequest, 32, [big, &sink] {
                    for (std::uint64_t v : big) sink += v;
                  }});
    e.run();
  };
  send_big();  // warmup: faults in the box's frame-pool size class
  const std::uint64_t before = g_news.load();
  send_big();
  const std::uint64_t after = g_news.load();
  // The boxed fallback draws from the frame pool, so even closures too
  // big for the inline buffer recycle their box in steady state.
  EXPECT_EQ(after - before, 0u);
}

// The PR's end-to-end claim: once pools are warm, a full AMO central
// barrier episode on 8 cpus — coroutine frames for every load/store, miss
// futures, MSHRs, line-event waiters, AMU queueing, directory entries,
// word-put waves, network hops, event scheduling — performs ZERO heap
// allocations. CPU 0 snapshots the global new count right after leaving
// an early (warmup) episode and again after the final episode; every
// allocation in between is steady-state execution-path traffic.
TEST(AllocCount, AmoBarrierEpisodeSteadyStateIsAllocationFree) {
  core::SystemConfig cfg;
  cfg.num_cpus = 8;
  core::Machine m(cfg);
  std::unique_ptr<sync::Barrier> barrier =
      sync::make_central_barrier(m, sync::Mechanism::kAmo, cfg.num_cpus);
  // Warmup must cover every rotating event-queue span slot the timeout
  // machinery can land in, not just fault in pools, so it spans many
  // episodes.
  constexpr int kWarmupEpisodes = 24;
  constexpr int kEpisodes = 32;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  for (sim::CpuId c = 0; c < cfg.num_cpus; ++c) {
    m.spawn(c, [&, c](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 1; ep <= kEpisodes; ++ep) {
        co_await t.compute(1 + (c * 7 + static_cast<unsigned>(ep)) % 50);
        co_await barrier->wait(t);
        if (c == 0 && ep == kWarmupEpisodes) before = g_news.load();
        if (c == 0 && ep == kEpisodes) after = g_news.load();
      }
    });
  }
  m.run();
  EXPECT_EQ(after - before, 0u)
      << "steady-state AMO barrier episodes must not touch the heap";
}

// The put wave at machine scale: spinners spread over a 1024-CPU machine
// (CPU 1023 puts the sharer snapshot at 16 words = 128 B, well past the
// 48-byte InlineFn buffer) take an AMO put wave per episode. The snapshot
// and the wave's shared closure come from the frame pool, so steady-state
// waves still never reach the global allocator.
TEST(AllocCount, WideAmoPutWaveIsAllocationFree) {
  core::SystemConfig cfg;
  cfg.num_cpus = 1024;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  constexpr int kWarmup = 8;
  constexpr int kEpisodes = 24;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  for (sim::CpuId c : {1u, 300u, 700u, 1023u}) {
    m.spawn(c, [&](core::ThreadCtx& t) -> sim::Task<void> {
      for (int ep = 1; ep <= kEpisodes; ++ep) {
        const auto goal = static_cast<std::uint64_t>(ep);
        co_await sync::spin_cached_until(
            t, flag, [goal](std::uint64_t x) { return x >= goal; });
      }
    });
  }
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int ep = 1; ep <= kEpisodes; ++ep) {
      co_await t.compute(2000);
      (void)co_await t.amo_fetch_add(flag, 1);
      if (ep == kWarmup) before = g_news.load();
      if (ep == kEpisodes) after = g_news.load();
    }
  });
  m.run();
  EXPECT_EQ(m.peek_word(flag), static_cast<std::uint64_t>(kEpisodes));
  std::uint64_t word_updates = 0;
  for (sim::NodeId n = 0; n < m.num_nodes(); ++n) {
    word_updates += m.dir(n).stats().word_updates_sent;
  }
  EXPECT_GE(word_updates, 4u * kEpisodes);
  EXPECT_EQ(after - before, 0u)
      << "steady-state 1024-CPU put waves must not touch the heap";
}

// The spin-virtualization layer's version of the same claim: a complete
// cached-spin episode — park registration, a wake by a store that does
// not satisfy the spin, re-park, and the final wake — stays
// allocation-free once the frame pool is warm.
TEST(AllocCount, CachedSpinEpisodeIsAllocationFree) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  constexpr int kWarmup = 8;
  constexpr int kEpisodes = 24;
  constexpr sim::Cycle kHold = 2000;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int ep = 1; ep <= kEpisodes; ++ep) {
      const auto goal = static_cast<std::uint64_t>(2 * ep);
      co_await sync::spin_cached_until(
          t, flag, [goal](std::uint64_t x) { return x >= goal; });
      if (ep == kWarmup) before = g_news.load();
      if (ep == kEpisodes) after = g_news.load();
    }
  });
  m.spawn(1, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int ep = 1; ep <= kEpisodes; ++ep) {
      co_await t.compute(kHold);
      co_await t.store(flag, static_cast<std::uint64_t>(2 * ep - 1));
      co_await t.compute(kHold);
      co_await t.store(flag, static_cast<std::uint64_t>(2 * ep));
    }
  });
  m.run();
  EXPECT_EQ(after - before, 0u)
      << "steady-state cached-spin episodes must not touch the heap";
}

// Caches keep storage only for seated sets: a lookup that misses, in a
// set never used or in a seated one, must not seat anything.
TEST(AllocCount, CacheMissesDoNotAllocate) {
  const mem::CacheGeometry geom;  // the default 2 MB, 4-way L2
  mem::Cache l2(geom);
  mem::TagCache l1(mem::CacheGeometry{32 * 1024, 2, 128});
  const std::vector<std::uint64_t> data(geom.line_bytes / 8, 1);
  (void)l2.insert(0x1000, mem::LineState::kShared, data);
  l1.fill(0x1000);
  const sim::Addr set_stride =
      sim::Addr{geom.num_sets()} * geom.line_bytes;  // same set as 0x1000
  const std::uint64_t before = g_news.load();
  for (sim::Addr a = 0x102000; a < 0x102000 + 64 * 128; a += 128) {
    EXPECT_EQ(l2.find(a), nullptr);  // unseated sets
    EXPECT_EQ(l2.peek(a), nullptr);
    EXPECT_FALSE(l1.probe(a));
    l1.invalidate(a);
  }
  EXPECT_EQ(l2.find(0x1000 + set_stride), nullptr);  // seated set
  EXPECT_FALSE(l1.probe(0x1000 + 32 * 1024));
  EXPECT_FALSE(l2.invalidate(0x1000 + set_stride).has_value());
  const std::uint64_t after = g_news.load();
  EXPECT_EQ(after - before, 0u) << "cache misses must not touch the heap";
  EXPECT_NE(l2.find(0x1000), nullptr);
  EXPECT_TRUE(l1.probe(0x1000));
}

TEST(AllocCount, EngineSteadyStateScheduleIsAllocationFree) {
  sim::Engine e;
  std::uint64_t ticks = 0;
  auto round = [&] {
    for (int i = 0; i < kRounds; ++i) {
      e.schedule(static_cast<sim::Cycle>(1 + i % 7), [&ticks] { ++ticks; });
    }
    e.run();
  };
  round();  // warmup: chunk slabs
  const std::uint64_t before = g_news.load();
  round();
  const std::uint64_t after = g_news.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state scheduling must recycle chunk storage";
}

}  // namespace
}  // namespace amo::net
