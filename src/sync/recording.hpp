// Latency-recording decorators for the sync primitives.
//
// Every lock/barrier factory routes its product through with_acquire_hist
// / with_episode_hist. When stats.histograms is off (the default) the
// inner primitive is returned untouched — zero overhead, zero behaviour
// change. When it is on, a thin wrapper times each acquire() / wait()
// call and records the latency into the machine's SyncHists
// (core::ThreadCtx::sync_hists), registered as "sync.lock_acquire_hist" /
// "sync.barrier_episode_hist".
//
// Recording wraps the primitive, not the mechanism: the sample includes
// queueing, spinning, and the configured software overheads — the
// latency an application thread actually experiences.
#pragma once

#include <memory>

#include "core/machine.hpp"
#include "sync/barrier.hpp"
#include "sync/lock.hpp"

namespace amo::sync {

/// Wraps `inner` so acquire() latency is recorded into the caller's
/// SyncHists; passthrough when m's stats.histograms is off.
std::unique_ptr<Lock> with_acquire_hist(core::Machine& m,
                                        std::unique_ptr<Lock> inner);

/// Wraps `inner` so wait() (episode) latency is recorded into the
/// caller's SyncHists; passthrough when histograms are off.
std::unique_ptr<Barrier> with_episode_hist(core::Machine& m,
                                           std::unique_ptr<Barrier> inner);

}  // namespace amo::sync
