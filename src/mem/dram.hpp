// Per-node DRAM timing: fixed access latency plus a busy-until occupancy
// that models the DDR channels as a shared resource. Returns the absolute
// cycle at which the access completes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/stats_registry.hpp"
#include "sim/types.hpp"

namespace amo::mem {

struct DramConfig {
  sim::Cycle access_cycles = 60;    // paper Table 1: 60 CPU cycles
  sim::Cycle occupancy_cycles = 8;  // channel reservation per line access
  /// Derived from stats.histograms by Machine (not a serialized knob):
  /// allocate the wait histogram and record per-access channel queueing
  /// into it.
  bool histograms = false;
};

class Dram {
 public:
  Dram(sim::Engine& engine, const DramConfig& config)
      : engine_(engine), config_(config) {
    if (config_.histograms) {
      wait_hist_ = std::make_unique<sim::LogHistogram>();
    }
  }

  /// Reserves the channels and returns the completion time of one line
  /// (or word) access starting now.
  sim::Cycle access() {
    const sim::Cycle start = std::max(engine_.now(), busy_until_);
    busy_until_ = start + config_.occupancy_cycles;
    const sim::Cycle done = start + config_.access_cycles;
    ++accesses_;
    wait_.add(start - engine_.now());
    if (wait_hist_) wait_hist_->record(start - engine_.now());
    return done;
  }

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] const sim::Accum& queue_wait() const { return wait_; }

  /// Registers the DRAM counters. Machine calls this only when
  /// stats.histograms is on — the "node<N>.dram" group is entirely new,
  /// so default-mode registry dumps stay byte-identical.
  void register_stats(sim::StatsRegistry& reg,
                      const std::string& prefix) const {
    reg.add_counter(prefix + ".accesses", &accesses_);
    reg.add_accum(prefix + ".queue_wait", &wait_);
    if (wait_hist_) {
      reg.add_hist(prefix + ".queue_wait_hist", wait_hist_.get());
    }
  }

 private:
  sim::Engine& engine_;
  DramConfig config_;
  sim::Cycle busy_until_ = 0;
  std::uint64_t accesses_ = 0;
  sim::Accum wait_;
  // ~8 KB, held out of line and allocated only when config_.histograms.
  std::unique_ptr<sim::LogHistogram> wait_hist_;
};

}  // namespace amo::mem
