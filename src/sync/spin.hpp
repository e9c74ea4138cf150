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

#include "core/thread_ctx.hpp"
#include "sim/task.hpp"

namespace amo::sync {

/// Spins on a *cacheable* word until `done(value)`; returns the final
/// value. The spinning itself is free of network traffic while the copy
/// stays valid — exactly the conventional-barrier behaviour the paper
/// analyses.
template <typename DoneFn>
sim::Task<std::uint64_t> spin_cached_until(core::ThreadCtx& t, sim::Addr addr,
                                           DoneFn done) {
  auto& cache = t.core().cache();
  // One load site: every awaiter lives in this frame, so a second
  // `co_await t.load` would widen it.
  for (bool parked = false;; parked = true) {
    const std::uint64_t v = co_await t.load(addr);
    if (done(v)) {
      if (parked) cache.unpark(addr);
      co_return v;
    }
    co_await cache.park(addr);
    ++t.spin_stats().parked_wakes;
  }
}

/// Spins with *uncached* loads (MAO-style: every poll is a remote access)
/// with a backoff between polls computed from the last value.
template <typename DoneFn, typename BackoffFn>
sim::Task<std::uint64_t> spin_uncached_until(core::ThreadCtx& t,
                                             sim::Addr addr, DoneFn done,
                                             BackoffFn backoff) {
  for (;;) {
    const std::uint64_t v = co_await t.uncached_load(addr);
    if (done(v)) co_return v;
    const sim::Cycle wait = backoff(v);
    if (wait > 0) co_await t.delay(wait);
  }
}

}  // namespace amo::sync
