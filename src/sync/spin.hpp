// Spin-wait helpers.
//
// Cached spinning is event-driven: after a poll that does not satisfy the
// wait, the spinner parks on the cache controller's per-line spin slot and
// re-polls only when a coherence event touches the line (invalidation,
// data fill, word update, local write, eviction). Waiting costs zero
// events until that wave arrives, which is also what a tight spin loop on
// a real machine costs: it hits in its own cache until the line changes.
// The registration is persistent across wake-ups, so a spin woken K times
// by non-satisfying events holds exactly one entry, not K.
#pragma once

#include <algorithm>

#include "core/thread_ctx.hpp"
#include "sim/task.hpp"
#include "sim/timeout.hpp"

namespace amo::sync {

/// Spins on a *cacheable* word until `done(value)`; returns the final
/// value. The spinning itself is free of network traffic while the copy
/// stays valid — exactly the conventional-barrier behaviour the paper
/// analyses.
template <typename DoneFn>
sim::Task<std::uint64_t> spin_cached_until(core::ThreadCtx& t, sim::Addr addr,
                                           DoneFn done) {
  std::uint64_t v = co_await t.load(addr);
  if (done(v)) co_return v;
  auto& cache = t.core().cache();
  for (;;) {
    co_await cache.park(addr);
    ++t.spin_stats().parked_wakes;
    v = co_await t.load(addr);
    if (done(v)) {
      cache.unpark(addr);
      co_return v;
    }
  }
}

/// Spins with *uncached* loads (MAO-style: every poll is a remote access)
/// with a backoff between polls computed from the last value. When the
/// directory word-watch is enabled (SpinConfig::uncached_watch), polls
/// between wakes are elided: the spinner registers its last-seen value at
/// the home node and sleeps until the word changes (with a long fallback
/// re-poll for liveness), and the polls it skipped are counted into the
/// per-cpu spin stats.
template <typename DoneFn, typename BackoffFn>
sim::Task<std::uint64_t> spin_uncached_until(core::ThreadCtx& t,
                                             sim::Addr addr, DoneFn done,
                                             BackoffFn backoff) {
  for (;;) {
    const sim::Cycle poll_start = t.now();
    const std::uint64_t v = co_await t.uncached_load(addr);
    if (done(v)) co_return v;
    const sim::Cycle poll_cost = t.now() - poll_start;
    const sim::Cycle wait = backoff(v);
    if (!t.spin().uncached_watch) {
      if (wait > 0) co_await t.delay(wait);
      continue;
    }
    ++t.spin_stats().watch_waits;
    // ONE registration per parked stretch: a liveness re-poll that finds
    // the word unchanged re-awaits the same future instead of stacking
    // another watcher at the home node.
    sim::Future<std::uint64_t> wake = t.core().uncached_watch(addr, v);
    for (;;) {
      const sim::Cycle parked_at = t.now();
      const std::optional<std::uint64_t> w = co_await sim::with_timeout(
          t.engine(), wake, t.spin().watch_repoll_cycles);
      // Elided polls ≈ parked interval over the observed poll cadence
      // (last round-trip plus the backoff the loop would have added).
      const sim::Cycle cadence = std::max<sim::Cycle>(1, poll_cost + wait);
      t.spin_stats().elided_polls += (t.now() - parked_at) / cadence;
      if (w.has_value()) {
        // The wake carries the word's new value: decide on it directly
        // and re-arm without an intervening uncached poll.
        if (done(*w)) co_return *w;
        ++t.spin_stats().watch_waits;
        wake = t.core().uncached_watch(addr, *w);
        continue;
      }
      // Watch survived a full repoll period: poll directly for liveness
      // (covers ABA — the word changed and changed back unseen).
      const std::uint64_t cur = co_await t.uncached_load(addr);
      if (done(cur)) co_return cur;
    }
  }
}

}  // namespace amo::sync
