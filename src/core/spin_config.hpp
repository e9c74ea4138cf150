// Spin-wait model knobs.
//
// Cached spins always park on the cache controller and wake on coherence
// events (sync/spin.hpp); there is nothing to configure about them. The
// knobs below change the *model* of the other spin kinds and are off by
// default, which is paper-parity: uncached (MAO-style) spins genuinely
// poll, and LL/SC or CAS retries re-fetch immediately.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace amo::core {

struct SpinConfig {
  /// Route uncached (MAO-style) spin polls through the home directory's
  /// word-watch: register once with the last-seen value, wake on the next
  /// uncached/AMU write to the word. Polls elided between wakes are
  /// counted in the per-cpu spin stats.
  bool uncached_watch = false;

  /// Liveness fallback re-poll period while an uncached word-watch is
  /// registered (covers watch-table overflow or wake loss; ABA on
  /// non-monotonic words).
  sim::Cycle watch_repoll_cycles = 1u << 16;

  /// After this many consecutive LL/SC or CAS retry failures, wait for
  /// home-node activity on the block (word-watch ping) before retrying
  /// instead of re-fetching immediately. 0 = retry immediately (default,
  /// paper-parity).
  std::uint32_t llsc_watch_after = 0;
};

}  // namespace amo::core
