// Observability knobs and the sync-library histogram bundle.
//
// `stats.histograms` is default-off so every pre-existing snapshot stays
// byte-identical; turning it on threads LogHistogram recording through
// the engine (dispatch delay), network (per-level link latency),
// directory (occupancy wait), cache controller (MSHR residency), AMU
// (queue wait), DRAM (queue wait), and the sync library (lock acquire /
// barrier episode latency).
#pragma once

#include "sim/stats.hpp"

namespace amo::core {

struct StatsConfig {
  /// Enables latency-histogram recording and registration everywhere.
  /// Off by default: recording costs a few branches per event, and the
  /// extra registry entries would change existing --json output.
  bool histograms = false;
};

/// The sync library's latency histograms. Machine owns one bundle; when
/// stats.histograms is on, every ThreadCtx points at it.
struct SyncHists {
  sim::LogHistogram lock_acquire;     // acquire() call to return, cycles
  sim::LogHistogram barrier_episode;  // wait() call to return, cycles
};

}  // namespace amo::core
