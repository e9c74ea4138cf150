// Leak-regression and waiter-accounting properties of the spin-wait
// virtualization layer.
//
// The bugs these pin down: an active-message timeout used to leak its
// timer callback (and a watcher coroutine frame) whenever the reply came
// first, and a cached spin woken K times used to stack K stale waiters on
// the cache controller. The leak tests measure pool/queue/table sizes
// across many repetitions, so a reintroduced leak shows up as monotone
// growth rather than a one-off.
//
// A parked cached spin has no timer: it wakes only on a coherence event.
// The lost-wakeup tests drive the two paths where the line's next change
// would otherwise never reach the spinner (eviction, and a word update
// for a silently dropped copy); a missed wake there is a deadlock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/machine.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/task.hpp"
#include "sync/barrier.hpp"
#include "sync/spin.hpp"

namespace amo {
namespace {

// ------------------------------------- active-message timeouts (machine)

// Back-to-back active messages from cpu 2 to a word homed on node 0, each
// after a gap long enough for the previous one's stray replies and timer
// to drain. Past a warmup, every call must leave the frame pool's slabs
// and the event queue's depth exactly where the previous call left them.
// Returns the retransmissions the calls made.
std::uint64_t expect_am_steady_state(const core::SystemConfig& cfg,
                                     sim::Cycle gap) {
  core::Machine m(cfg);
  const sim::Addr word = m.galloc().alloc_word_line(0);
  constexpr int kWarmup = 8;
  constexpr int kCalls = 64;
  std::size_t slabs = 0;
  std::size_t pending = 0;
  bool grew = false;
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int i = 1; i <= kWarmup + kCalls; ++i) {
      co_await t.delay(gap);
      (void)co_await t.am_fetch_add(word, 1);
      if (i == kWarmup) {
        slabs = sim::frame_pool_detail::slabs_held();
        pending = t.engine().pending_events();
      } else if (i > kWarmup) {
        grew = grew || sim::frame_pool_detail::slabs_held() != slabs ||
               t.engine().pending_events() != pending;
      }
    }
  });
  m.run();
  EXPECT_FALSE(grew) << "calls past warmup must not fault new slabs or "
                        "leave more events queued";
  EXPECT_EQ(m.peek_word(word), std::uint64_t{kWarmup + kCalls})
      << "exactly once despite the retransmissions";
  EXPECT_EQ(m.engine().pending_events(), 0u);
  return m.core(2).stats().am_retransmits;
}

// The handler outlasts the timeout many times over: each call's timer
// wins about twenty times before a reply lands.
TEST(SpinLeaks, ConsecutiveTimeoutsDoNotGrowPoolsOrQueue) {
  core::SystemConfig cfg;
  cfg.am_timeout_cycles = 1000;
  cfg.am_server.invoke_cycles = 20000;
  EXPECT_GE(expect_am_steady_state(cfg, 40000), 64u * 15);
}

// The reply beats the timer every time; the spent timers fire later as
// no-ops.
TEST(SpinLeaks, CompletionBeforeTimeoutReleasesTheTimer) {
  core::SystemConfig cfg;
  EXPECT_EQ(expect_am_steady_state(cfg, cfg.am_timeout_cycles), 0u);
}

// --------------------------------------------- cached spin (machine)

// A spin woken K times by stores that do not satisfy it holds exactly ONE
// parked entry for the whole stretch — not K.
TEST(SpinLeaks, SpinSurvivingRepollsHoldsExactlyOneWaiter) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  constexpr std::uint64_t kStores = 40;
  constexpr sim::Cycle kGap = 500;
  constexpr sim::Cycle kRelease = kStores * kGap;
  std::size_t max_parked = 0;
  std::size_t samples_parked = 0;
  std::size_t samples = 0;
  std::uint64_t wakes = 0;
  // Sample the park table while cpu 0 is mid-spin. The stride is coprime
  // to the store period so samples land all over the cadence.
  for (sim::Cycle at = 2000; at < kRelease; at += 977) {
    m.engine().schedule_at(at, [&] {
      ++samples;
      const auto& cache = m.core(0).cache();
      max_parked = std::max(max_parked, cache.parked_entries());
      if (cache.parked_entries() == 1) ++samples_parked;
    });
  }
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    const std::uint64_t v = co_await sync::spin_cached_until(
        t, flag, [](std::uint64_t x) { return x > kStores; });
    EXPECT_EQ(v, kStores + 1);
    wakes = t.spin_stats().parked_wakes;
  });
  m.spawn(1, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= kStores + 1; ++i) {
      co_await t.compute(kGap);
      co_await t.store(flag, i);
    }
  });
  m.run();
  EXPECT_GE(samples, 18u);
  EXPECT_EQ(wakes, kStores + 1) << "one wake per store to the line";
  EXPECT_EQ(max_parked, 1u) << "wake-ups must re-arm the same entry";
  EXPECT_EQ(samples_parked, samples)
      << "the persistent registration never lapses between wake-ups";
  EXPECT_EQ(m.core(0).cache().parked_entries(), 0u)
      << "a satisfied spin unparks its entry";
}

// Steady-state spin episodes keep the frame pool and the ladder queue at
// their high-water marks.
TEST(SpinLeaks, CachedSpinEpisodesReachSteadyState) {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  constexpr int kWarmup = 8;
  constexpr int kEpisodes = 32;
  constexpr sim::Cycle kHold = 4000;
  std::size_t slabs = 0;
  bool grew = false;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int ep = 1; ep <= kEpisodes; ++ep) {
      const auto goal = static_cast<std::uint64_t>(ep);
      co_await sync::spin_cached_until(
          t, flag, [goal](std::uint64_t x) { return x >= goal; });
      if (ep == kWarmup) {
        slabs = sim::frame_pool_detail::slabs_held();
      } else if (ep > kWarmup) {
        grew = grew || sim::frame_pool_detail::slabs_held() != slabs;
      }
    }
  });
  m.spawn(1, [&](core::ThreadCtx& t) -> sim::Task<void> {
    for (int ep = 1; ep <= kEpisodes; ++ep) {
      co_await t.compute(kHold);
      co_await t.store(flag, static_cast<std::uint64_t>(ep));
    }
  });
  m.run();
  EXPECT_FALSE(grew)
      << "episodes past warmup must not fault new slabs";
  EXPECT_EQ(m.engine().pending_events(), 0u);
}

// ------------------------------------------- lost wakeups (machine)

// One-set L2 (two ways, one-line L1): any two other lines evict the third.
core::SystemConfig one_set_cache_cfg() {
  core::SystemConfig cfg;
  cfg.num_cpus = 2;
  cfg.cache.l2 = mem::CacheGeometry{2 * 128, 2, 128};
  cfg.cache.l1 = mem::CacheGeometry{128, 1, 128};
  return cfg;
}

// Runs `m` and returns the deadlock message, or "" if it ran clean.
std::string run_for_deadlock(core::Machine& m) {
  try {
    m.run();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// The spinner holds its flag clean-exclusive, so evicting it sends a PutE
// and the home forgets cpu 0 entirely: the later store reaches no one.
// Only the eviction wake makes the spinner re-fetch and re-register.
TEST(SpinLeaks, EvictedParkedLineWakesSpinner) {
  core::SystemConfig cfg = one_set_cache_cfg();
  cfg.dir.grant_exclusive_clean = true;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  const sim::Addr b = m.galloc().alloc_word_line(0);
  const sim::Addr c = m.galloc().alloc_word_line(0);
  std::uint64_t seen = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    seen = co_await sync::spin_cached_until(
        t, flag, [](std::uint64_t x) { return x != 0; });
  });
  // A second context on cpu 0 fills two conflicting lines while the
  // spinner is parked.
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.delay(2000);
    (void)co_await t.load(b);
    (void)co_await t.load(c);
  });
  m.spawn(1, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(8000);
    co_await t.store(flag, 1);
  });
  EXPECT_EQ(run_for_deadlock(m), "");
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(m.core(0).cache().parked_entries(), 0u);
}

// The spinner's S copy is dropped silently (Origin-style), so the home
// still lists cpu 0 as a sharer and pushes the AMO's word update to a
// cache that no longer holds the line. That update must still wake the
// spinner. The spinner drops its own copy before parking: while it is
// parked, an eviction would wake it through the other hook.
TEST(SpinLeaks, WordUpdateForDroppedCopyWakesSpinner) {
  core::SystemConfig cfg = one_set_cache_cfg();
  cfg.dir.grant_exclusive_clean = false;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(0);
  const sim::Addr b = m.galloc().alloc_word_line(0);
  const sim::Addr c = m.galloc().alloc_word_line(0);
  std::uint64_t seen = 0;
  m.spawn(0, [&](core::ThreadCtx& t) -> sim::Task<void> {
    auto& cache = t.core().cache();
    std::uint64_t v = co_await t.load(flag);
    (void)co_await t.load(b);
    (void)co_await t.load(c);
    EXPECT_EQ(cache.l2().find(flag, /*touch=*/false), nullptr)
        << "the S copy must be gone before the spinner parks";
    while (v == 0) {
      co_await cache.park(flag);
      v = co_await t.load(flag);
    }
    cache.unpark(flag);
    seen = v;
  });
  m.spawn(1, [&](core::ThreadCtx& t) -> sim::Task<void> {
    co_await t.compute(8000);
    (void)co_await t.amo_fetch_add(flag, 5);
  });
  EXPECT_EQ(run_for_deadlock(m), "");
  EXPECT_EQ(seen, 5u);
}

// A spin on a flag nobody writes is a deadlock, and the error names the
// parked CPU, the line, and the line's home node.
TEST(SpinLeaks, DeadlockNamesParkedSpinners) {
  core::SystemConfig cfg;
  cfg.num_cpus = 4;
  core::Machine m(cfg);
  const sim::Addr flag = m.galloc().alloc_word_line(1);
  m.spawn(2, [&](core::ThreadCtx& t) -> sim::Task<void> {
    (void)co_await sync::spin_cached_until(
        t, flag, [](std::uint64_t x) { return x != 0; });
  });
  const std::string msg = run_for_deadlock(m);
  EXPECT_NE(msg.find("1 thread(s) still blocked"), std::string::npos) << msg;
  std::ostringstream want;
  want << "cpu2 parked on line 0x" << std::hex << flag << std::dec
       << " (home node 1)";
  EXPECT_NE(msg.find(want.str()), std::string::npos) << msg;
  EXPECT_EQ(msg.find("cpu0"), std::string::npos) << msg;
}

}  // namespace
}  // namespace amo
