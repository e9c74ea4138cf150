// Whole-machine configuration. Defaults follow Table 1 of the paper
// (2 GHz 4-issue cores, 32 KB L1D, 2 MB L2, 128 B lines, 60-cycle DRAM,
// 500 MHz hub, 100-cycle network hops, NUMALink-4 fat tree) with the
// modelling substitutions documented in DESIGN.md.
#pragma once

#include <cstdint>

#include "amu/amu.hpp"
#include "coh/cache_ctrl.hpp"
#include "coh/directory.hpp"
#include "core/hier_config.hpp"
#include "core/service_config.hpp"
#include "core/stats_config.hpp"
#include "cpu/am_server.hpp"
#include "mem/dram.hpp"
#include "net/network.hpp"
#include "sim/types.hpp"

namespace amo::core {

struct SystemConfig {
  std::uint32_t num_cpus = 4;
  std::uint32_t cpus_per_node = 2;  // two MIPS cores per hub (paper)

  coh::CacheCtrlConfig cache;   // L1/L2 geometry + latencies
  mem::DramConfig dram;         // 60-cycle access
  net::NetConfig net;           // hop latency etc.; num_nodes derived
  coh::DirConfig dir;           // directory occupancy / put granularity
  amu::AmuConfig amu;           // AMU cache size, op latency, put policy
  cpu::AmServerConfig am_server;
  sim::Cycle am_timeout_cycles = 20000;
  HierConfig hier;        // hierarchy-aware synchronization knobs
  ServiceConfig service;  // sharded-service workload knobs
  StatsConfig stats;      // observability (latency histograms)

  /// On-node hub traversal (CPU <-> directory/AMU on the same die).
  sim::Cycle local_cycles = 24;

  /// CPU <-> hub system-bus crossing, paid on each end of remote traffic.
  sim::Cycle bus_cycles = 50;

  /// Software path length of a barrier library call (entry + exit): the
  /// OpenMP runtime's bookkeeping around the hardware primitive. Applied
  /// half on entry, half on exit by the sync library.
  sim::Cycle barrier_sw_overhead = 2000;
  /// Software path length of a lock acquire/release pair.
  sim::Cycle lock_sw_overhead = 600;

  std::uint64_t seed = 1;

  /// Host worker threads for one simulation run (conservative PDES over
  /// home-node domains). 1 = the serial engine. K > 1 domain-decomposes
  /// the machine; results are deterministic (double-run identical) but a
  /// separately-seeded mode relative to K == 1 — see DESIGN.md §10.
  std::uint32_t sim_threads = 1;

  [[nodiscard]] std::uint32_t num_nodes() const {
    return (num_cpus + cpus_per_node - 1) / cpus_per_node;
  }
  [[nodiscard]] std::uint32_t line_bytes() const {
    return cache.l2.line_bytes;
  }
};

}  // namespace amo::core
