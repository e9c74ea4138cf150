// Observability knobs and the sync-library histogram bundle.
//
// `stats.histograms` is default-off so every pre-existing snapshot stays
// byte-identical. Machine hands it to its sim::StatsRegistry, the one
// owner of the switch; turning it on threads LogHistogram recording
// through the engine (dispatch delay), network (per-level link latency),
// directory (occupancy wait), cache controller (MSHR residency), AMU
// (queue wait) and the sync library (lock acquire / barrier episode
// latency).
#pragma once

#include "sim/stats.hpp"

namespace amo::core {

struct StatsConfig {
  /// Enables latency-histogram recording and registration everywhere.
  /// Off by default: recording costs a few branches per event, and the
  /// extra registry entries would change existing --json output.
  bool histograms = false;
};

/// The sync library's latency histograms, owned by the machine's stats
/// registry. Machine owns one bundle, and every sync::Lock / sync::Barrier
/// takes its pointer from it at construction.
struct SyncHists {
  sim::LogHistogram* lock_acquire = nullptr;  // acquire() call, cycles
  sim::LogHistogram* barrier_episode = nullptr;  // wait() call, cycles
};

}  // namespace amo::core
