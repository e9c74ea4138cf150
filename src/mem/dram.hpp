// Per-node DRAM timing: a fixed access latency (the paper's Table 1 gives
// DRAM only a latency). Returns the absolute cycle at which the access
// completes.
#pragma once

#include <cstdint>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace amo::mem {

struct DramConfig {
  sim::Cycle access_cycles = 60;  // paper Table 1: 60 CPU cycles
};

class Dram {
 public:
  Dram(sim::Engine& engine, const DramConfig& config)
      : engine_(engine), config_(config) {}

  /// Completion time of one line (or word) access starting now.
  sim::Cycle access() {
    ++accesses_;
    return engine_.now() + config_.access_cycles;
  }

  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }

 private:
  sim::Engine& engine_;
  DramConfig config_;
  std::uint64_t accesses_ = 0;
};

}  // namespace amo::mem
